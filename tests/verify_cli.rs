//! Exit-code contract of `slc verify`: 0 = everything proven or skipped
//! clean, 1 = violations or error-severity lints (or unreadable input),
//! 2 = bad usage. The batch gate and CI smoke step rely on these codes.

use std::io::Write;
use std::process::Command;

fn slc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_slc"))
}

fn write_temp(name: &str, src: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("slc_verify_cli_{name}_{}.c", std::process::id()));
    std::fs::File::create(&path)
        .unwrap()
        .write_all(src.as_bytes())
        .unwrap();
    path
}

#[test]
fn clean_program_exits_zero() {
    let path = write_temp(
        "clean",
        "float A[32]; float B[32]; float s; float t; int i;\n\
         for (i = 0; i < 16; i++) { t = A[i] * B[i]; s = s + t; }",
    );
    let out = slc().arg("verify").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("verified"), "stdout:\n{stdout}");
    std::fs::remove_file(path).ok();
}

/// `slc verify --scheduler exact` on a loop whose exact schedule unrolls
/// the kernel 12 times over 10 kernel iterations: the kernel loop runs
/// zero passes, the residual holds every kernel iteration, and the
/// verifier must accept that shape.
#[test]
fn exact_zero_pass_kernel_exits_zero() {
    let path = write_temp(
        "zero_pass",
        "float A0[28]; float A1[28]; float t0; float t1; float s; int i;\n\
         for (i = 5; i < 20; i++) {\n\
         A0[i + 2] = A0[i - 1];\n\
         if (A1[i] < A0[i]) A1[i - 2] = 4.0 + A0[i + 3] + t1;\n\
         A1[i - 1] = t1 + s;\n\
         t0 = t1 + 2.0;\n\
         A0[i] = A0[i - 3] * t1 * t0;\n\
         }",
    );
    let out = slc()
        .args(["--scheduler", "exact"])
        .arg(&path)
        .output()
        .unwrap();
    let emitted = String::from_utf8_lossy(&out.stdout);
    assert!(
        emitted.contains("for (i = 5; i < 5; i += 12)"),
        "expected a zero-pass kernel:\n{emitted}"
    );
    let out = slc()
        .args(["verify", "--scheduler", "exact"])
        .arg(&path)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(stdout.contains("verified"), "stdout:\n{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn lint_error_exits_one() {
    // `s` is initialised on one path only: the error-severity L001 fires.
    let path = write_temp(
        "lint",
        "float A[10]; float s; int c;\n\
         if (c > 0) s = 1.0;\n\
         A[0] = s;",
    );
    let out = slc().arg("verify").arg(&path).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout:\n{stdout}");
    assert!(stdout.contains("SLMS-L001"), "stdout:\n{stdout}");
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_flag_exits_two() {
    let out = slc().arg("verify").arg("--bogus").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_expansion_value_exits_two() {
    let out = slc()
        .args(["verify", "--expansion", "telepathy"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_exits_one() {
    let out = slc()
        .args(["verify", "/nonexistent/slc_no_such_file.c"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn all_workloads_exit_zero() {
    let out = slc().args(["verify", "--all"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout:\n{stdout}");
    assert!(
        stdout.contains("obligations discharged"),
        "stdout:\n{stdout}"
    );
}

//! Golden pin of the machine schedulers. For every innermost loop of the
//! workload corpus, before and after SLMS, and for each of the four
//! machine presets, the modulo schedule (II, stages, ResMII, RecMII,
//! register pressure and kernel) and the list schedule's `cycle_of` are
//! digested. A seeded set of random bodies (predicates, symbolic and
//! unknown addresses, fixed addresses, strided and negative steps) is
//! pinned the same way. Any change to dependence building, the RecMII
//! bound, IMS placement, the pressure estimate or list-scheduling priority
//! that moves a single op fails here.

use slc_analysis::LinForm;
use slc_core::{slms_program, SlmsConfig};
use slc_machine::ir::{BinKind, Lir, Op, OpKind, Operand};
use slc_machine::mach::MachineDesc;
use slc_machine::{list_schedule, lower_program, modulo_schedule};
use slc_sim::presets::{arm7tdmi, itanium2, pentium, power4};

/// Corpus innermost loops digested per preset.
const LOOPS: usize = 92;

/// FNV-1a digest of the corpus loops per preset.
const GOLDEN: [(&str, u64); 4] = [
    ("itanium2", 0xb5e645212b62e715),
    ("pentium", 0x1d5885e5cbbf20ed),
    ("power4", 0xf256889936ff5fe0),
    ("arm7tdmi", 0x5e3845308bddb792),
];

/// Seeded random bodies digested per preset.
const RANDOM: usize = 400;

/// FNV-1a digest of the random bodies per preset.
const GOLDEN_RANDOM: [(&str, u64); 4] = [
    ("itanium2", 0xf75a9675ed70af40),
    ("pentium", 0x3160fd7112e54007),
    ("power4", 0x1ca525edcd47a120),
    ("arm7tdmi", 0xa9bcabfba95d094c),
];

struct Fnv(u64);

impl Fnv {
    fn write(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// `(var, step, body)` of every innermost loop, in program order.
fn innermost(items: &[Lir], out: &mut Vec<(String, i64, Vec<Op>)>) {
    for it in items {
        let Lir::Loop(l) = it else { continue };
        if l.body.iter().all(|b| matches!(b, Lir::Block(_))) {
            let ops = l
                .body
                .iter()
                .flat_map(|b| match b {
                    Lir::Block(ops) => ops.clone(),
                    Lir::Loop(_) => unreachable!(),
                })
                .collect();
            out.push((l.var.clone(), l.step, ops));
        } else {
            innermost(&l.body, out);
        }
    }
}

fn corpus_loops() -> Vec<(String, i64, Vec<Op>)> {
    let mut out = Vec::new();
    for w in slc_workloads::all() {
        let prog = w.program();
        let (slms, _) = slms_program(&prog, &SlmsConfig::default());
        for p in [&prog, &slms] {
            if let Ok(lir) = lower_program(p) {
                innermost(&lir.items, &mut out);
            }
        }
    }
    out
}

/// xorshift64: the bodies must not depend on any library's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_addr(rng: &mut Rng) -> Option<LinForm> {
    let i = |c: i64| LinForm::var("i").scale(c);
    let k = LinForm::constant(rng.below(9) as i64 - 4);
    match rng.below(16) {
        0 => None,
        1 => Some(k),
        2 => Some(i(1).add(&LinForm::var("j")).add(&k)),
        3 => Some(i(2).add(&k)),
        _ => Some(i(1).add(&k)),
    }
}

fn random_body(rng: &mut Rng) -> (i64, Vec<Op>) {
    let step = [1, 1, 1, 2, -1][rng.below(5) as usize];
    let n = 2 + rng.below(22) as usize;
    let reg = |rng: &mut Rng| rng.below(10) as u32;
    let opnd = |rng: &mut Rng| {
        if rng.below(6) == 0 {
            Operand::ImmF(1.5)
        } else {
            Operand::Reg(rng.below(10) as u32)
        }
    };
    let arrays = ["A", "B", "C"];
    let mut ops = Vec::with_capacity(n + 1);
    for _ in 0..n {
        let kind = match rng.below(10) {
            0..=2 => OpKind::Load {
                dst: reg(rng),
                array: arrays[rng.below(3) as usize].into(),
                addr: random_addr(rng).map(Into::into),
            },
            3..=4 => OpKind::Store {
                src: opnd(rng),
                array: arrays[rng.below(3) as usize].into(),
                addr: random_addr(rng).map(Into::into),
            },
            5..=8 => OpKind::Bin {
                op: [BinKind::Add, BinKind::Mul, BinKind::Sub, BinKind::Div][rng.below(4) as usize],
                fp: rng.below(4) != 0,
                dst: reg(rng),
                a: opnd(rng),
                b: opnd(rng),
            },
            _ => OpKind::Intrinsic {
                name: "sqrt".into(),
                dst: reg(rng),
                args: vec![opnd(rng)],
                heavy: rng.below(2) == 0,
            },
        };
        let mut op = Op::new(kind);
        if rng.below(8) == 0 {
            op.pred = Some((reg(rng), rng.below(2) == 0));
        }
        ops.push(op);
    }
    ops.push(Op::new(OpKind::Branch));
    (step, ops)
}

fn random_loops() -> Vec<(String, i64, Vec<Op>)> {
    let mut rng = Rng(0x05ee_d0f1_c0de);
    (0..RANDOM)
        .map(|_| {
            let (step, ops) = random_body(&mut rng);
            ("i".to_string(), step, ops)
        })
        .collect()
}

fn digest(m: &MachineDesc, loops: &[(String, i64, Vec<Op>)]) -> u64 {
    let mut h = Fnv(0xcbf29ce484222325);
    for (var, step, ops) in loops {
        match modulo_schedule(ops, m, var, *step) {
            Some(ms) => h.write(&format!(
                "ii={} stages={} res={} rec={} pressure={} kernel={:?};",
                ms.ii, ms.stages, ms.res_mii, ms.rec_mii, ms.reg_pressure, ms.kernel
            )),
            None => h.write("ims=none;"),
        }
        h.write(&format!("list={:?};", list_schedule(ops, m).cycle_of));
    }
    h.0
}

fn check(golden: &[(&str, u64); 4], loops: &[(String, i64, Vec<Op>)]) {
    let presets = [itanium2(), pentium(), power4(), arm7tdmi()];
    let got: Vec<(&str, u64)> = golden
        .iter()
        .zip(&presets)
        .map(|(&(name, _), m)| (name, digest(m, loops)))
        .collect();
    assert_eq!(got, golden, "schedules changed: {got:#x?}");
}

#[test]
fn corpus_schedules_match_golden() {
    let loops = corpus_loops();
    assert_eq!(loops.len(), LOOPS, "corpus innermost-loop count changed");
    check(&GOLDEN, &loops);
}

#[test]
fn random_body_schedules_match_golden() {
    check(&GOLDEN_RANDOM, &random_loops());
}

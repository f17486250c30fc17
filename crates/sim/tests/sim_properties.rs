//! Property-level invariants of the cycle simulator.

use proptest::prelude::*;
use slc_analysis::LinForm;
use slc_machine::ir::{BinKind, Bundle, Op, OpKind, Operand};
use slc_machine::mach::{IssueModel, MachineDesc};
use slc_sim::cycle::{simulate, CompiledProgram, Seg, SimLoop};

fn lin_i(c: i64, k: i64) -> LinForm {
    LinForm::var("i").scale(c).add(&LinForm::constant(k))
}

fn load(dst: u32, c: i64, k: i64) -> Op {
    Op::new(OpKind::Load {
        dst,
        array: "A".into(),
        addr: Some(lin_i(c, k).into()),
    })
}

fn fadd(dst: u32, a: u32, b: u32) -> Op {
    Op::new(OpKind::Bin {
        op: BinKind::Add,
        fp: true,
        dst,
        a: Operand::Reg(a),
        b: Operand::Reg(b),
    })
}

fn prog(body: Vec<Bundle>, trips: i64) -> CompiledProgram {
    CompiledProgram {
        segs: vec![Seg::Loop(SimLoop {
            var: "i".into(),
            init: 0,
            step: 1,
            trips,
            body: vec![Seg::Straight(body)],
            extra_mem_per_iter: 0,
        })],
        arrays: vec![("A".into(), 4096)],
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    #[test]
    fn cycles_monotone_in_trips(t1 in 1i64..40, extra in 1i64..40) {
        let m = MachineDesc::default();
        let body = vec![vec![load(0, 1, 0)], vec![fadd(1, 0, 0)]];
        let a = simulate(&prog(body.clone(), t1), &m);
        let b = simulate(&prog(body, t1 + extra), &m);
        prop_assert!(b.cycles > a.cycles);
        prop_assert!(b.total_ops() > a.total_ops());
    }

    #[test]
    fn accesses_equal_mem_ops(trips in 1i64..64, nloads in 1usize..4) {
        let m = MachineDesc::default();
        let body: Vec<Bundle> = (0..nloads)
            .map(|k| vec![load(k as u32, 1, k as i64)])
            .collect();
        let r = simulate(&prog(body, trips), &m);
        prop_assert_eq!(
            r.cache.hits + r.cache.misses,
            (trips as u64) * nloads as u64
        );
    }

    #[test]
    fn wider_issue_never_slower_inorder(trips in 4i64..32) {
        let mk = |w: usize| MachineDesc {
            issue: IssueModel::DynamicInOrder,
            issue_width: w,
            units: [4, 4, 4, 4, 4, 4, 4],
            ..MachineDesc::default()
        };
        let body = vec![vec![
            load(0, 1, 0),
            load(1, 1, 1),
            load(2, 1, 2),
            fadd(3, 0, 1),
        ]];
        let narrow = simulate(&prog(body.clone(), trips), &mk(1));
        let wide = simulate(&prog(body, trips), &mk(4));
        prop_assert!(wide.cycles <= narrow.cycles);
    }

    #[test]
    fn bigger_cache_never_more_misses(trips in 8i64..64) {
        let small = MachineDesc {
            cache: slc_machine::mach::CacheConfig {
                size: 512,
                line: 64,
                ways: 2,
                miss_penalty: 12,
            },
            ..MachineDesc::default()
        };
        let big = MachineDesc {
            cache: slc_machine::mach::CacheConfig {
                size: 64 * 1024,
                line: 64,
                ways: 2,
                miss_penalty: 12,
            },
            ..MachineDesc::default()
        };
        // strided loads stress capacity
        let body = vec![vec![load(0, 16, 0)], vec![load(1, 16, 8)]];
        let a = simulate(&prog(body.clone(), trips), &small);
        let b = simulate(&prog(body, trips), &big);
        prop_assert!(b.cache.misses <= a.cache.misses);
    }
}

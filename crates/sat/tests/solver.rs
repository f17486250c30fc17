//! SAT solver correctness suite: the CDCL solver is property-tested
//! against the exhaustive model enumerator on random small CNF, core
//! minimization against the plain deletion loop, and the internals (unit
//! propagation, conflict analysis, unsat cores) are pinned on hand-built
//! instances.

use proptest::prelude::*;
use slc_exact::{Dep, ExactScheduler};
use slc_sat::{brute_force, check_model, minimize_core, solve_subset, Lit, Outcome, Solver};

/// The plain deletion loop `minimize_core` must agree with: one fresh
/// sub-solve per clause, no model rotation.
fn oracle_minimize_core(clauses: &[Vec<Lit>], core: &[usize]) -> Vec<usize> {
    let mut cur: Vec<usize> = core.to_vec();
    cur.sort_unstable();
    let mut i = 0;
    while i < cur.len() {
        let mut trial = cur.clone();
        trial.remove(i);
        match solve_subset(clauses, &trial) {
            Outcome::Unsat(smaller) => cur = smaller,
            Outcome::Sat(_) => i += 1,
        }
    }
    cur
}

/// The first model in numeric order (variable 0 least significant), one
/// assignment at a time: the reference `brute_force`'s skipping must match.
fn naive_first_model(num_vars: usize, clauses: &[Vec<Lit>]) -> Option<Vec<bool>> {
    (0..1u64 << num_vars)
        .map(|bits| {
            (0..num_vars)
                .map(|v| bits >> v & 1 == 1)
                .collect::<Vec<bool>>()
        })
        .find(|m| check_model(m, clauses))
}

/// The unsat core the solver reports for `clauses`, if unsatisfiable.
fn core_of(clauses: &[Vec<Lit>]) -> Option<Vec<usize>> {
    let mut s = Solver::new();
    for c in clauses {
        s.add_clause(c);
    }
    match s.solve() {
        Outcome::Unsat(core) => Some(core),
        Outcome::Sat(_) => None,
    }
}

/// A random exact-scheduler body of `n` MIs. Each drawn pair becomes a
/// forward distance-0 edge, a distance-1 edge, or a distance-1 edge in
/// both directions (which keeps the two MIs within II positions of each
/// other), so low IIs are often refuted.
fn deps_strategy() -> impl Strategy<Value = (usize, Vec<Dep>)> {
    let pairs = proptest::collection::vec((0usize..6, 0usize..6, 0u8..3), 3..12);
    (4usize..7, pairs).prop_map(|(n, raw)| {
        let dep = |from, to, d| Dep {
            from,
            to,
            dist: Some(d),
        };
        let mut deps = Vec::new();
        for (a, b, kind) in raw {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            match kind {
                0 => deps.push(dep(a.min(b), a.max(b), 0)),
                1 => deps.push(dep(a, b, 1)),
                _ => deps.extend([dep(a, b, 1), dep(b, a, 1)]),
            }
        }
        (n, deps)
    })
}

/// A random clause over `num_vars` variables with 1–4 literals.
fn clause_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Lit>> {
    proptest::collection::vec((0..num_vars, any::<bool>()), 1..5).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(v, neg)| if neg { Lit::neg(v) } else { Lit::pos(v) })
            .collect()
    })
}

fn cnf_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
    proptest::collection::vec(clause_strategy(num_vars), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    /// sat/unsat agreement with the brute-force enumerator on CNF of up
    /// to 20 variables; models returned by the solver must actually
    /// satisfy the formula, and unsat cores must be unsatisfiable subsets.
    #[test]
    fn cdcl_agrees_with_brute_force(clauses in cnf_strategy(20)) {
        let reference = brute_force(20, &clauses);
        let mut s = Solver::new();
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve() {
            Outcome::Sat(mut model) => {
                prop_assert!(reference.is_some(), "solver SAT but enumerator found no model");
                model.resize(20, false);
                prop_assert!(check_model(&model, &clauses), "solver model does not satisfy CNF");
            }
            Outcome::Unsat(core) => {
                prop_assert!(reference.is_none(), "solver UNSAT but enumerator found a model");
                // the core must itself be an unsatisfiable subset
                let subset: Vec<Vec<Lit>> = core.iter().map(|&i| clauses[i].clone()).collect();
                prop_assert!(brute_force(20, &subset).is_none(), "unsat core is satisfiable");
            }
        }
    }

    /// Skipping falsified blocks of assignments still finds exactly the
    /// first model in enumeration order, or none.
    #[test]
    fn brute_force_matches_naive_enumeration(clauses in cnf_strategy(10)) {
        prop_assert_eq!(brute_force(10, &clauses), naive_first_model(10, &clauses));
    }

    /// `solve_subset` and `minimize_core` preserve unsatisfiability and
    /// produce cores in the original id space.
    #[test]
    fn minimized_cores_stay_unsat(clauses in cnf_strategy(8)) {
        let mut s = Solver::new();
        for c in &clauses {
            s.add_clause(c);
        }
        if let Outcome::Unsat(core) = s.solve() {
            let min = minimize_core(&clauses, &core);
            prop_assert!(min.iter().all(|i| core.contains(i)), "minimized core grew");
            let subset: Vec<Vec<Lit>> = min.iter().map(|&i| clauses[i].clone()).collect();
            prop_assert!(brute_force(8, &subset).is_none(), "minimized core is satisfiable");
            // minimality: dropping any single clause makes it satisfiable
            for k in 0..min.len() {
                let mut trial = min.clone();
                trial.remove(k);
                prop_assert!(
                    solve_subset(&clauses, &trial).is_sat(),
                    "core is not minimal: clause {} is redundant",
                    min[k]
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 200, ..ProptestConfig::default() })]

    /// Model rotation only skips sub-solves that would return SAT, so the
    /// minimized core is the plain deletion loop's, clause for clause.
    #[test]
    fn rotation_core_matches_deletion_oracle_on_random_cnf(
        clauses in proptest::collection::vec(clause_strategy(8), 10..60)
    ) {
        if let Some(core) = core_of(&clauses) {
            prop_assert_eq!(minimize_core(&clauses, &core), oracle_minimize_core(&clauses, &core));
        }
    }

    /// The same on the exact scheduler's `(n, II)` encodings at every II
    /// below the body size, where the refuting ones are the proofs
    /// `slc-exact` certifies.
    #[test]
    fn rotation_core_matches_deletion_oracle_on_exact_encodings(body in deps_strategy()) {
        let (n, deps) = body;
        for ii in 1..n as i64 {
            let (clauses, _) = ExactScheduler::default().encode(&deps, n, ii);
            if let Some(core) = core_of(&clauses) {
                prop_assert_eq!(minimize_core(&clauses, &core), oracle_minimize_core(&clauses, &core));
            }
        }
    }
}

/// Unit propagation alone solves a Horn-style chain: x0, x0→x1, x1→x2 …
/// with zero decisions.
#[test]
fn unit_propagation_solves_implication_chain() {
    let mut s = Solver::new();
    s.add_clause(&[Lit::pos(0)]);
    for v in 0..9 {
        s.add_clause(&[Lit::neg(v), Lit::pos(v + 1)]);
    }
    match s.solve() {
        Outcome::Sat(model) => assert!(model.iter().all(|&b| b)),
        Outcome::Unsat(_) => panic!("chain is satisfiable"),
    }
    assert_eq!(
        s.stats().decisions,
        0,
        "pure propagation needs no decisions"
    );
    assert!(s.stats().propagations >= 10);
}

/// Conflict analysis learns something on the classic 2-level conflict
/// instance and still reports SAT.
#[test]
fn conflict_analysis_learns_and_recovers() {
    // (x0 ∨ x1) (x0 ∨ ¬x1) force x0 after any x0=false branch;
    // (¬x0 ∨ x2) (¬x0 ∨ ¬x2 ∨ x3) then propagate the rest.
    let mut s = Solver::new();
    s.add_clause(&[Lit::pos(0), Lit::pos(1)]);
    s.add_clause(&[Lit::pos(0), Lit::neg(1)]);
    s.add_clause(&[Lit::neg(0), Lit::pos(2)]);
    s.add_clause(&[Lit::neg(0), Lit::neg(2), Lit::pos(3)]);
    match s.solve() {
        Outcome::Sat(model) => {
            assert!(model[0] && model[2] && model[3]);
        }
        Outcome::Unsat(_) => panic!("instance is satisfiable"),
    }
    // the default phase assigns false first, so x0=false must have
    // conflicted and been repaired by a learned unit
    assert!(s.stats().conflicts >= 1);
    assert!(s.stats().learned >= 1);
}

/// Unsat core on a hand-built instance: pigeonhole-free core among
/// irrelevant clauses. The relevant contradiction is x5 ∧ (¬x5 ∨ x6) ∧ ¬x6;
/// decoy clauses over other variables must not appear in the core.
#[test]
fn unsat_core_excludes_irrelevant_clauses() {
    let clauses: Vec<Vec<Lit>> = vec![
        vec![Lit::pos(0), Lit::pos(1)],              // 0: decoy
        vec![Lit::pos(5)],                           // 1: core
        vec![Lit::neg(2), Lit::pos(3)],              // 2: decoy
        vec![Lit::neg(5), Lit::pos(6)],              // 3: core
        vec![Lit::neg(6)],                           // 4: core
        vec![Lit::pos(4), Lit::neg(0), Lit::pos(2)], // 5: decoy
    ];
    let mut s = Solver::new();
    for c in &clauses {
        s.add_clause(c);
    }
    let core = match s.solve() {
        Outcome::Unsat(core) => core,
        Outcome::Sat(_) => panic!("instance is unsatisfiable"),
    };
    let min = minimize_core(&clauses, &core);
    assert_eq!(min, vec![1, 3, 4], "exact minimal core expected");
}

/// The core of a conflict discovered below decision level 0 (via learned
/// units) is still sound and minimal after minimization: XOR-style chain
/// with both parities blocked.
#[test]
fn unsat_core_minimality_on_xor_block() {
    // x0⊕x1 = 1 (clauses 0,1), x1⊕x2 = 1 (2,3), x0⊕x2 = 1 (4,5): odd
    // cycle — unsat; plus two decoys (6,7).
    let clauses: Vec<Vec<Lit>> = vec![
        vec![Lit::pos(0), Lit::pos(1)],
        vec![Lit::neg(0), Lit::neg(1)],
        vec![Lit::pos(1), Lit::pos(2)],
        vec![Lit::neg(1), Lit::neg(2)],
        vec![Lit::pos(0), Lit::pos(2)],
        vec![Lit::neg(0), Lit::neg(2)],
        vec![Lit::pos(3), Lit::pos(4)],
        vec![Lit::neg(3), Lit::pos(4)],
    ];
    let mut s = Solver::new();
    for c in &clauses {
        s.add_clause(c);
    }
    let core = match s.solve() {
        Outcome::Unsat(core) => core,
        Outcome::Sat(_) => panic!("odd XOR cycle is unsatisfiable"),
    };
    assert!(core.iter().all(|&i| i < 6), "decoys leaked into the core");
    let min = minimize_core(&clauses, &core);
    assert_eq!(min, vec![0, 1, 2, 3, 4, 5]);
    for k in 0..min.len() {
        let mut trial = min.clone();
        trial.remove(k);
        assert!(solve_subset(&clauses, &trial).is_sat());
    }
}

/// Determinism: identical instances yield identical models, cores, and
/// statistics.
#[test]
fn solver_is_deterministic() {
    let run = || {
        let mut s = Solver::new();
        let clauses = [
            vec![Lit::pos(0), Lit::pos(1), Lit::pos(2)],
            vec![Lit::neg(0), Lit::pos(3)],
            vec![Lit::neg(1), Lit::neg(3)],
            vec![Lit::neg(2), Lit::pos(1)],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        (s.solve(), s.stats())
    };
    assert_eq!(run(), run());
}

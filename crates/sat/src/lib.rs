//! # slc-sat — a small CDCL SAT solver with unsat cores
//!
//! In-workspace solver backing the exact modulo scheduler (`slc-exact`).
//! Like the proptest/criterion shims, it exists because the build
//! environment has no registry access; unlike them it is a real solver:
//! two-watched-literal propagation, first-UIP clause learning, Luby
//! restarts, and — the part the certificate machinery depends on —
//! **unsat-core extraction**: every learned clause carries the set of
//! original clause ids it was resolved from, so a refutation names the
//! exact subset of input clauses that is jointly unsatisfiable.
//!
//! Everything is deterministic: no randomness, no wall clock, ties broken
//! by variable index. The same instance always produces the same model or
//! the same core, which is what lets solver statistics flow into the
//! byte-identical batch report.
//!
//! **The search trajectory and the cores are part of the contract.** The
//! sequence of decisions, propagations, conflicts, learned clauses and
//! restarts, the [`Stats`] it adds up to, the model and the core are all
//! pinned downstream: by the exact scheduler's certificates, the batch
//! report digest, the `exact.*` counters and histograms, and the golden
//! solves in `slc-exact`'s tests. A change to this crate may make the
//! search cheaper but must not change where it goes. The hot paths are
//! allocation-free for that reason rather than smarter: clause literals
//! live in one arena, watch lists are compacted in place, origin sets
//! are bitsets over original clause ids, and conflict analysis reuses
//! its buffers.
//!
//! ```
//! use slc_sat::{Lit, Outcome, Solver};
//! let mut s = Solver::new();
//! s.add_clause(&[Lit::pos(0), Lit::pos(1)]);
//! s.add_clause(&[Lit::neg(0)]);
//! match s.solve() {
//!     Outcome::Sat(m) => assert!(m[1] && !m[0]),
//!     Outcome::Unsat(_) => unreachable!(),
//! }
//! ```

/// Variable index (0-based, dense).
pub type Var = usize;

/// A literal: a variable with a polarity, packed as `2·var + sign`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Lit {
        Lit((v as u32) << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Lit {
        Lit(((v as u32) << 1) | 1)
    }

    /// The variable this literal tests.
    pub fn var(self) -> Var {
        (self.0 >> 1) as usize
    }

    /// True for `¬v` literals.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    /// The opposite literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense index for watch lists.
    fn idx(self) -> usize {
        self.0 as usize
    }

    /// Truth value under a complete assignment.
    pub fn eval(self, model: &[bool]) -> bool {
        model[self.var()] != self.is_neg()
    }
}

impl std::fmt::Display for Lit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_neg() {
            write!(f, "¬x{}", self.var())
        } else {
            write!(f, "x{}", self.var())
        }
    }
}

/// Result of [`Solver::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Satisfiable, with one model (`model[v]` = assigned value of `v`).
    Sat(Vec<bool>),
    /// Unsatisfiable, with an unsat core: a sorted set of original clause
    /// ids (as returned by [`Solver::add_clause`]) that is jointly
    /// unsatisfiable.
    Unsat(Vec<usize>),
}

impl Outcome {
    /// True for [`Outcome::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Sat(_))
    }
}

/// Deterministic search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// branching decisions made
    pub decisions: u64,
    /// literals enqueued by unit propagation
    pub propagations: u64,
    /// conflicts analyzed
    pub conflicts: u64,
    /// Luby restarts performed
    pub restarts: u64,
    /// clauses learned
    pub learned: u64,
}

/// One stored clause (original or learned): a range of the literal arena.
#[derive(Clone, Copy)]
struct Clause {
    start: usize,
    len: usize,
}

/// Conflict-driven clause-learning solver. Build with [`Solver::new`],
/// add clauses, then call [`Solver::solve`] (idempotent — the outcome is
/// memoized).
pub struct Solver {
    /// literals of every clause, back to back
    lits: Vec<Lit>,
    clauses: Vec<Clause>,
    /// ids of original clauses (prefix of `clauses`)
    n_original: usize,
    /// indices of active unit clauses, enqueued at level 0
    units: Vec<usize>,
    /// watch lists: literal index → clause indices watching it
    watches: Vec<Vec<usize>>,
    assigns: Vec<Option<bool>>,
    /// saved phase per variable (last assigned polarity; initially false)
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    root_unsat: Option<Vec<usize>>,
    memo: Option<Outcome>,
    stats: Stats,
    /// 64-bit words per origin set (`⌈n_original / 64⌉`, fixed at solve)
    origin_words: usize,
    /// origin sets of learned clauses: a bitset over original clause ids,
    /// `origin_words` words per learned clause, in learning order (an
    /// original clause's origin set is just itself and is not stored)
    learned_origins: Vec<u64>,
    /// conflict-analysis scratch, reused across conflicts
    scratch: Scratch,
}

/// Buffers conflict analysis and core extraction reuse instead of
/// allocating per call.
#[derive(Default)]
struct Scratch {
    /// variables resolved on (or kept in the learned clause) at level > 0
    seen: Vec<bool>,
    /// level-0 variables whose reason chain is already in `origins`
    seen0: Vec<bool>,
    stack: Vec<Var>,
    learnt: Vec<Lit>,
    /// origin set under construction
    origins: Vec<u64>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Conflicts per Luby unit.
const RESTART_UNIT: u64 = 64;

impl Solver {
    /// An empty instance.
    pub fn new() -> Self {
        Solver {
            lits: Vec::new(),
            clauses: Vec::new(),
            n_original: 0,
            units: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            root_unsat: None,
            memo: None,
            stats: Stats::default(),
            origin_words: 0,
            learned_origins: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Number of variables (highest mentioned + 1).
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Search statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    fn grow_to(&mut self, v: Var) {
        let n = v + 1;
        if self.assigns.len() >= n {
            return;
        }
        self.assigns.resize(n, None);
        self.phase.resize(n, false);
        self.level.resize(n, 0);
        self.reason.resize(n, None);
        self.activity.resize(n, 0.0);
        // watch lists outlive [`Solver::clear`] to keep their buffers
        if self.watches.len() < 2 * n {
            self.watches.resize_with(2 * n, Vec::new);
        }
    }

    /// Back to the state of [`Solver::new`], keeping every buffer.
    fn clear(&mut self) {
        self.lits.clear();
        self.clauses.clear();
        self.n_original = 0;
        self.units.clear();
        for w in &mut self.watches {
            w.clear();
        }
        self.assigns.clear();
        self.phase.clear();
        self.level.clear();
        self.reason.clear();
        self.trail.clear();
        self.trail_lim.clear();
        self.qhead = 0;
        self.activity.clear();
        self.var_inc = 1.0;
        self.root_unsat = None;
        self.memo = None;
        self.stats = Stats::default();
        self.origin_words = 0;
        self.learned_origins.clear();
    }

    fn clause_lits(&self, ci: usize) -> &[Lit] {
        let c = self.clauses[ci];
        &self.lits[c.start..c.start + c.len]
    }

    /// Add a clause (a disjunction of literals) and return its id.
    /// Duplicate literals are removed; tautologies are accepted but never
    /// constrain the search. The empty clause makes the instance
    /// trivially unsatisfiable with core `[id]`.
    pub fn add_clause(&mut self, lits: &[Lit]) -> usize {
        assert!(self.memo.is_none(), "add_clause after solve");
        let id = self.clauses.len();
        let start = self.lits.len();
        self.lits.extend_from_slice(lits);
        let ls = &mut self.lits[start..];
        ls.sort_unstable();
        let mut len = 0;
        for k in 0..ls.len() {
            if len == 0 || ls[k] != ls[len - 1] {
                ls[len] = ls[k];
                len += 1;
            }
        }
        self.lits.truncate(start + len);
        let ls = &self.lits[start..];
        let tautology = ls.windows(2).any(|w| w[0].var() == w[1].var());
        // sorted by `2·var + sign`, so the last literal has the largest var
        if let Some(m) = ls.last().map(|l| l.var()) {
            self.grow_to(m);
        }
        if !tautology {
            match len {
                0 => {
                    if self.root_unsat.is_none() {
                        self.root_unsat = Some(vec![id]);
                    }
                }
                1 => self.units.push(id),
                _ => {
                    let (w0, w1) = (self.lits[start].idx(), self.lits[start + 1].idx());
                    self.watches[w0].push(id);
                    self.watches[w1].push(id);
                }
            }
        }
        // tautologies are stored (for id stability) but never attached
        self.clauses.push(Clause { start, len });
        self.n_original = self.clauses.len();
        id
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn lit_value(&self, l: Lit) -> Option<bool> {
        self.assigns[l.var()].map(|b| b != l.is_neg())
    }

    /// Assign `p` true. Only call when `p` is unassigned.
    fn enqueue(&mut self, p: Lit, reason: Option<usize>) {
        debug_assert!(self.lit_value(p).is_none());
        let v = p.var();
        self.assigns[v] = Some(!p.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(p);
        if reason.is_some() {
            self.stats.propagations += 1;
        }
    }

    /// Two-watched-literal BCP. Returns a conflicting clause index. The
    /// watch list of the falsified literal is compacted in place, keeping
    /// the order of the clauses that still watch it.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let (mut read, mut kept) = (0, 0);
            let mut conflict = None;
            while read < ws.len() {
                let ci = ws[read];
                read += 1;
                let Clause { start, len } = self.clauses[ci];
                if self.lits[start] == false_lit {
                    self.lits.swap(start, start + 1);
                }
                let first = self.lits[start];
                if self.lit_value(first) != Some(true) {
                    let replacement =
                        (2..len).find(|&k| self.lit_value(self.lits[start + k]) != Some(false));
                    if let Some(k) = replacement {
                        self.lits.swap(start + 1, start + k);
                        let w = self.lits[start + 1];
                        self.watches[w.idx()].push(ci);
                        continue;
                    }
                    if self.lit_value(first) == Some(false) {
                        conflict = Some(ci);
                    } else {
                        self.enqueue(first, Some(ci));
                    }
                }
                ws[kept] = ci;
                kept += 1;
                if conflict.is_some() {
                    // keep the rest of this watch list untouched
                    ws.copy_within(read.., kept);
                    kept += ws.len() - read;
                    break;
                }
            }
            ws.truncate(kept);
            self.watches[false_lit.idx()] = ws;
            if let Some(ci) = conflict {
                self.qhead = self.trail.len();
                return Some(ci);
            }
        }
        None
    }

    fn bump(&mut self, v: Var) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= 0.95;
    }

    /// Union the origin set of clause `ci` into `out`.
    fn add_origins(&self, ci: usize, out: &mut [u64]) {
        if ci < self.n_original {
            out[ci / 64] |= 1 << (ci % 64);
        } else {
            let base = (ci - self.n_original) * self.origin_words;
            let set = &self.learned_origins[base..base + self.origin_words];
            for (o, s) in out.iter_mut().zip(set) {
                *o |= s;
            }
        }
    }

    /// Union the origin closure of a level-0 assigned variable into
    /// `sc.origins` (the reason chain that forced it). Variables already
    /// marked in `sc.seen0` have their closure in the set already.
    fn level0_origins(&self, v0: Var, sc: &mut Scratch) {
        sc.stack.push(v0);
        while let Some(v) = sc.stack.pop() {
            if sc.seen0[v] {
                continue;
            }
            sc.seen0[v] = true;
            if let Some(r) = self.reason[v] {
                self.add_origins(r, &mut sc.origins);
                for &q in self.clause_lits(r) {
                    if q.var() != v {
                        sc.stack.push(q.var());
                    }
                }
            }
        }
    }

    /// Reset the scratch buffers for one analysis or core extraction.
    fn take_scratch(&mut self) -> Scratch {
        let mut sc = std::mem::take(&mut self.scratch);
        sc.seen0.clear();
        sc.seen0.resize(self.num_vars(), false);
        sc.seen.resize(self.num_vars(), false);
        sc.origins.clear();
        sc.origins.resize(self.origin_words, 0);
        sc.learnt.clear();
        sc
    }

    /// First-UIP conflict analysis. Leaves the learned clause in
    /// `sc.learnt` (asserting literal first, second-highest-level literal
    /// second) and the origin set of the resolution in `sc.origins`;
    /// returns the backjump level.
    fn analyze(&mut self, mut confl: usize, sc: &mut Scratch) -> u32 {
        let cur = self.decision_level();
        // slot 0 is the asserting literal, filled in at the UIP
        sc.learnt.push(Lit(0));
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            self.add_origins(confl, &mut sc.origins);
            let Clause { start, len } = self.clauses[confl];
            for k in start..start + len {
                let q = self.lits[k];
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if sc.seen[v] {
                    continue;
                }
                if self.level[v] == 0 {
                    // globally-false literal, dropped from the learned
                    // clause — but its derivation stays in the origin set
                    self.level0_origins(v, sc);
                    continue;
                }
                sc.seen[v] = true;
                self.bump(v);
                if self.level[v] >= cur {
                    counter += 1;
                } else {
                    sc.learnt.push(q);
                }
            }
            loop {
                idx -= 1;
                if sc.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            sc.seen[pl.var()] = false;
            counter -= 1;
            if counter == 0 {
                sc.learnt[0] = pl.negate();
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var()].expect("non-UIP literal has a reason");
        }
        // only the lower-level literals are still marked
        for l in &sc.learnt[1..] {
            sc.seen[l.var()] = false;
        }
        let learnt = &mut sc.learnt;
        let mut back = 0;
        if learnt.len() > 1 {
            let mut mi = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[mi].var()] {
                    mi = i;
                }
            }
            learnt.swap(1, mi);
            back = self.level[learnt[1].var()];
        }
        back
    }

    fn cancel_until(&mut self, lvl: u32) {
        while self.decision_level() > lvl {
            let lim = self.trail_lim.pop().expect("level implies a limit");
            while self.trail.len() > lim {
                let p = self.trail.pop().expect("trail above limit");
                let v = p.var();
                self.phase[v] = !p.is_neg();
                self.assigns[v] = None;
                self.reason[v] = None;
            }
        }
        self.qhead = self.trail.len().min(self.qhead);
    }

    /// Store the learned clause left in `sc` by [`Solver::analyze`],
    /// attach watches, and assert its first literal.
    fn learn(&mut self, sc: &Scratch) {
        self.stats.learned += 1;
        let ci = self.clauses.len();
        let start = self.lits.len();
        self.lits.extend_from_slice(&sc.learnt);
        self.learned_origins.extend_from_slice(&sc.origins);
        let len = sc.learnt.len();
        if len > 1 {
            self.watches[sc.learnt[0].idx()].push(ci);
            self.watches[sc.learnt[1].idx()].push(ci);
        }
        self.clauses.push(Clause { start, len });
        self.enqueue(sc.learnt[0], Some(ci));
    }

    /// Unsat core of a conflict at decision level 0: resolve the conflict
    /// clause against the reason chain of every falsified literal.
    fn final_core(&mut self, confl: usize) -> Vec<usize> {
        let mut sc = self.take_scratch();
        self.add_origins(confl, &mut sc.origins);
        let Clause { start, len } = self.clauses[confl];
        for k in start..start + len {
            self.level0_origins(self.lits[k].var(), &mut sc);
        }
        let mut core = Vec::new();
        for (w, &word) in sc.origins.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                core.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        self.scratch = sc;
        core
    }

    /// Pick the unassigned variable with the highest activity (ties →
    /// lowest index).
    fn pick_branch(&self) -> Option<Var> {
        let mut best: Option<Var> = None;
        for v in 0..self.num_vars() {
            if self.assigns[v].is_none() && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Decide satisfiability. The outcome is memoized; repeated calls are
    /// cheap and identical.
    pub fn solve(&mut self) -> Outcome {
        if let Some(o) = &self.memo {
            return o.clone();
        }
        let o = self.solve_inner();
        self.memo = Some(o.clone());
        o
    }

    fn solve_inner(&mut self) -> Outcome {
        if let Some(core) = &self.root_unsat {
            return Outcome::Unsat(core.clone());
        }
        self.origin_words = self.n_original.div_ceil(64);
        // assert the original unit clauses at level 0
        for u in 0..self.units.len() {
            let ci = self.units[u];
            let l = self.lits[self.clauses[ci].start];
            match self.lit_value(l) {
                Some(true) => {}
                Some(false) => return Outcome::Unsat(self.final_core(ci)),
                None => self.enqueue(l, Some(ci)),
            }
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                return Outcome::Unsat(self.final_core(confl));
            }
        }
        let mut since_restart = 0u64;
        let mut restart_idx = 0u64;
        let mut limit = RESTART_UNIT * luby(restart_idx);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    return Outcome::Unsat(self.final_core(confl));
                }
                let mut sc = self.take_scratch();
                let back = self.analyze(confl, &mut sc);
                self.cancel_until(back);
                self.learn(&sc);
                self.scratch = sc;
                self.decay();
                since_restart += 1;
            } else if since_restart >= limit {
                self.stats.restarts += 1;
                restart_idx += 1;
                limit = RESTART_UNIT * luby(restart_idx);
                since_restart = 0;
                self.cancel_until(0);
            } else {
                match self.pick_branch() {
                    None => {
                        let model: Vec<bool> = self
                            .assigns
                            .iter()
                            .map(|a| a.expect("complete assignment"))
                            .collect();
                        return Outcome::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = if self.phase[v] {
                            Lit::pos(v)
                        } else {
                            Lit::neg(v)
                        };
                        self.enqueue(lit, None);
                    }
                }
            }
        }
    }
}

/// True when `model` satisfies every clause (an empty clause is never
/// satisfied).
pub fn check_model(model: &[bool], clauses: &[Vec<Lit>]) -> bool {
    clauses.iter().all(|c| c.iter().any(|l| l.eval(model)))
}

/// Exhaustive model enumeration — the trusted reference the CDCL solver
/// is property-tested against, and the checker `slc verify` uses to
/// re-establish that a certificate's clause set is unsatisfiable. Returns
/// the lexicographically first model (variable 0 is the least significant
/// bit of the enumeration), or `None` when unsatisfiable. Exponential in
/// `num_vars`; callers keep `num_vars ≤ 24`.
pub fn brute_force(num_vars: usize, clauses: &[Vec<Lit>]) -> Option<Vec<bool>> {
    assert!(num_vars <= 24, "brute_force is exponential in num_vars");
    // Per-clause bitmasks: a clause is falsified by a model `bits` iff
    // `bits & care == falsify` (every literal assigned its false value).
    // Tautologies can never match and are dropped.
    let mut masks: Vec<(u64, u64)> = Vec::with_capacity(clauses.len());
    for c in clauses {
        if c.is_empty() {
            return None;
        }
        let (mut care, mut falsify) = (0u64, 0u64);
        let mut tautology = false;
        for &l in c {
            assert!(l.var() < num_vars, "literal out of range");
            let bit = 1u64 << l.var();
            let false_bit = if l.is_neg() { bit } else { 0 };
            if care & bit != 0 && falsify & bit != false_bit {
                tautology = true;
                break;
            }
            care |= bit;
            falsify = (falsify & !bit) | false_bit;
        }
        if !tautology {
            masks.push((care, falsify));
        }
    }
    // A clause falsified by `bits` is falsified by every model that agrees
    // with `bits` on the clause's variables. All models up to the next
    // change of the clause's lowest variable do, so the enumeration jumps
    // there: the first model found is still the first in numeric order.
    let mut bits = 0u64;
    'next: while bits < 1u64 << num_vars {
        for &(care, falsify) in &masks {
            if bits & care == falsify {
                let low = care & care.wrapping_neg();
                bits = (bits | (low - 1)) + 1;
                continue 'next;
            }
        }
        return Some((0..num_vars).map(|v| bits >> v & 1 == 1).collect());
    }
    None
}

/// Solve only the clauses in `keep` (ids into `clauses`); the returned
/// core is mapped back to ids in the original space.
pub fn solve_subset(clauses: &[Vec<Lit>], keep: &[usize]) -> Outcome {
    solve_subset_in(&mut Solver::new(), clauses, keep)
}

/// [`solve_subset`] in `s`, cleared first: the search is the one a fresh
/// solver makes, without allocating a fresh solver's buffers.
fn solve_subset_in(s: &mut Solver, clauses: &[Vec<Lit>], keep: &[usize]) -> Outcome {
    s.clear();
    for &id in keep {
        s.add_clause(&clauses[id]);
    }
    match s.solve_inner() {
        Outcome::Sat(m) => Outcome::Sat(m),
        Outcome::Unsat(core) => {
            let mut mapped: Vec<usize> = core.into_iter().map(|i| keep[i]).collect();
            mapped.sort_unstable();
            Outcome::Unsat(mapped)
        }
    }
}

/// Deletion-based unsat-core minimization: drop each clause of `core` in
/// turn (ascending id) and keep the deletion whenever the remainder is
/// still unsatisfiable. The result is a *minimal* core (no single clause
/// can be removed), though not necessarily a minimum one. `core` must be
/// an unsat core of `clauses`.
///
/// Sub-solves whose answer is already known are skipped by **recursive
/// model rotation**: a satisfiable sub-solve of `cur \ {c}` returns a
/// model that falsifies only `c`. Flipping one variable of `c` satisfies
/// `c`; when the flipped model then falsifies exactly one other clause `d`
/// of `cur`, it shows `cur \ {d}` satisfiable, so `d` is *critical* and
/// rotation recurses from `d`. Criticality survives every later
/// shrinking of `cur`, so the sub-solve for a critical clause would
/// return SAT and is not run. Every unsatisfiable sub-solve still runs,
/// which makes the result identical to the plain deletion loop's.
pub fn minimize_core(clauses: &[Vec<Lit>], core: &[usize]) -> Vec<usize> {
    let mut cur: Vec<usize> = core.to_vec();
    cur.sort_unstable();
    let mut rot = Rotation::new(clauses, &cur);
    let mut solver = Solver::new();
    let mut trial = Vec::with_capacity(cur.len());
    let mut i = 0;
    while i < cur.len() {
        let c = cur[i];
        trial.clear();
        trial.extend_from_slice(&cur[..i]);
        trial.extend_from_slice(&cur[i + 1..]);
        if rot.critical[c] {
            debug_assert!(
                solve_subset_in(&mut solver, clauses, &trial).is_sat(),
                "clause {c} marked critical but the core without it is unsat"
            );
            i += 1;
            continue;
        }
        match solve_subset_in(&mut solver, clauses, &trial) {
            Outcome::Unsat(smaller) => {
                // the sub-solve may shrink the core further for free
                rot.shrink(&cur, &smaller);
                cur = smaller;
            }
            Outcome::Sat(model) => {
                rot.rotate(model, c);
                i += 1;
            }
        }
    }
    cur
}

/// Criticality bookkeeping for [`minimize_core`].
struct Rotation<'a> {
    clauses: &'a [Vec<Lit>],
    /// literal index → ids of core clauses containing that literal
    occurs: Vec<Vec<usize>>,
    /// clause id → member of the current core
    in_cur: Vec<bool>,
    /// clause id → known critical (the current core without it is SAT)
    critical: Vec<bool>,
}

impl<'a> Rotation<'a> {
    fn new(clauses: &'a [Vec<Lit>], core: &[usize]) -> Self {
        let num_vars = core
            .iter()
            .flat_map(|&c| &clauses[c])
            .map(|l| l.var() + 1)
            .max()
            .unwrap_or(0);
        let mut occurs = vec![Vec::new(); 2 * num_vars];
        let mut in_cur = vec![false; clauses.len()];
        for &c in core {
            in_cur[c] = true;
            for l in &clauses[c] {
                let o: &mut Vec<usize> = &mut occurs[l.idx()];
                if o.last() != Some(&c) {
                    o.push(c);
                }
            }
        }
        Rotation {
            clauses,
            occurs,
            in_cur,
            critical: vec![false; clauses.len()],
        }
    }

    fn shrink(&mut self, cur: &[usize], smaller: &[usize]) {
        for &c in cur {
            self.in_cur[c] = false;
        }
        for &c in smaller {
            self.in_cur[c] = true;
        }
    }

    /// The single core clause `model` falsifies, given that the last flip
    /// made `lit` false and the clause falsified before it true. Only
    /// clauses containing `lit` can have become false.
    fn unique_falsified(&self, model: &[bool], lit: Lit) -> Option<usize> {
        let mut found = None;
        for &d in &self.occurs[lit.idx()] {
            if self.in_cur[d] && self.clauses[d].iter().all(|l| !l.eval(model)) {
                if found.is_some() {
                    return None;
                }
                found = Some(d);
            }
        }
        found
    }

    /// Mark `c` critical from `model`, which satisfies every core clause
    /// but `c`, and rotate: each frame holds a clause the current model
    /// alone falsifies and the next of its literals to flip. Flips are
    /// kept while descending and undone when a frame is left.
    fn rotate(&mut self, mut model: Vec<bool>, c: usize) {
        model.resize(self.occurs.len() / 2, false);
        self.critical[c] = true;
        let mut stack = vec![(c, 0usize)];
        while let Some(top) = stack.last_mut() {
            let (e, k) = *top;
            let Some(&l) = self.clauses[e].get(k) else {
                stack.pop();
                if let Some(&(pe, pk)) = stack.last() {
                    let v = self.clauses[pe][pk - 1].var();
                    model[v] = !model[v];
                }
                continue;
            };
            top.1 += 1;
            let v = l.var();
            model[v] = !model[v];
            match self.unique_falsified(&model, l.negate()) {
                Some(d) if !self.critical[d] => {
                    self.critical[d] = true;
                    stack.push((d, 0));
                }
                _ => model[v] = !model[v],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        s.add_clause(&[Lit::pos(0)]);
        assert_eq!(s.solve(), Outcome::Sat(vec![true]));

        let mut s = Solver::new();
        let a = s.add_clause(&[Lit::pos(0)]);
        let b = s.add_clause(&[Lit::neg(0)]);
        assert_eq!(s.solve(), Outcome::Unsat(vec![a, b]));
    }

    #[test]
    fn tautologies_never_constrain_or_appear_in_cores() {
        let mut s = Solver::new();
        s.add_clause(&[Lit::pos(0), Lit::neg(0)]);
        let a = s.add_clause(&[Lit::pos(1)]);
        let b = s.add_clause(&[Lit::neg(1)]);
        assert_eq!(s.solve(), Outcome::Unsat(vec![a, b]));
    }

    #[test]
    fn luby_prefix() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }
}

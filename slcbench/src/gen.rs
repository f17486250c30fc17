//! Seeded generator of mini-language loops.
//!
//! The statement templates follow the property test `tests/prop_slms.rs`
//! (stores, temporaries, an accumulator, guarded stores) and add the input
//! properties the benchmark varies on purpose: body size, number of arrays,
//! an explicit recurrence distance, guarded statements (if-conversion),
//! trip count (short loops where simulation fast-forward falls back, long
//! ones where it engages) and constant versus symbolic trip count.

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f5c_1c0d_e5a1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// True with probability `pct` percent.
    pub fn chance(&mut self, pct: u64) -> bool {
        self.next_u64() % 100 < pct
    }

    /// An independent stream for a sub-task.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }
}

/// Shape of the loops one workload draws.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// statements per loop body, inclusive range
    pub stmts: (i64, i64),
    /// percent of loops with at least one guarded statement
    pub guard_pct: u64,
    /// percent of loops whose trip count is a runtime value
    pub symbolic_pct: u64,
    /// percent of loops with a long constant trip count (hundreds of trips)
    pub long_pct: u64,
}

/// One generated program and the properties it was drawn with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenLoop {
    pub source: String,
    pub guarded: bool,
    pub symbolic: bool,
    pub trips: i64,
}

fn off_str(off: i64) -> String {
    match off {
        0 => "i".to_string(),
        o if o > 0 => format!("i + {o}"),
        o => format!("i - {}", -o),
    }
}

fn term(rng: &mut Rng, arrays: i64) -> String {
    match rng.range(0, 5) {
        0..=2 => format!(
            "A{}[{}]",
            rng.range(0, arrays - 1),
            off_str(rng.range(-3, 3))
        ),
        3 => format!("t{}", rng.range(0, 1)),
        4 => format!("{}.0", rng.range(1, 4)),
        _ => "s".to_string(),
    }
}

fn rhs(rng: &mut Rng, arrays: i64) -> String {
    let op = if rng.chance(40) { " * " } else { " + " };
    let n = rng.range(1, 3);
    (0..n)
        .map(|_| term(rng, arrays))
        .collect::<Vec<_>>()
        .join(op)
}

/// Draw one loop program.
pub fn gen_loop(rng: &mut Rng, shape: &Shape) -> GenLoop {
    let n = rng.range(shape.stmts.0, shape.stmts.1) as usize;
    gen_sized(rng, shape, n)
}

/// Draw one loop program with `n` statements.
fn gen_sized(rng: &mut Rng, shape: &Shape, n: usize) -> GenLoop {
    let arrays = rng.range(2, 4);
    let guarded = rng.chance(shape.guard_pct);
    let symbolic = rng.chance(shape.symbolic_pct);
    // one statement slot carries an explicit recurrence `A[i] = A[i - d] ...`
    let recurrence = rng
        .chance(60)
        .then(|| (rng.range(0, n as i64 - 1) as usize, rng.range(1, 4)));
    let guard_slot = guarded.then(|| rng.range(0, n as i64 - 1) as usize);
    let mut body = String::new();
    for k in 0..n {
        let line = if Some(k) == guard_slot {
            let a = rng.range(0, arrays - 1);
            format!(
                "if (A{a}[i] < A{}[{}]) A{a}[{}] = {};",
                rng.range(0, arrays - 1),
                off_str(rng.range(-2, 2)),
                off_str(rng.range(-2, 2)),
                rhs(rng, arrays)
            )
        } else if let Some((_, d)) = recurrence.filter(|(slot, _)| *slot == k) {
            let a = rng.range(0, arrays - 1);
            let op = if rng.chance(50) { "+" } else { "*" };
            format!("A{a}[i] = A{a}[i - {d}] {op} {};", term(rng, arrays))
        } else {
            match rng.range(0, 5) {
                0..=2 => format!(
                    "A{}[{}] = {};",
                    rng.range(0, arrays - 1),
                    off_str(rng.range(-2, 2)),
                    rhs(rng, arrays)
                ),
                3 | 4 => format!("t{} = {};", rng.range(0, 1), rhs(rng, arrays)),
                _ => format!("s += {};", rhs(rng, arrays)),
            }
        };
        body.push_str(&line);
        body.push('\n');
    }
    let trips = if rng.chance(shape.long_pct) {
        rng.range(200, 600)
    } else {
        rng.range(8, 40)
    };
    let init = rng.range(4, 7);
    let size = init + trips + 8;
    let mut decls = String::new();
    for a in 0..arrays {
        decls.push_str(&format!("float A{a}[{size}]; "));
    }
    decls.push_str("float t0; float t1; float s; int i;");
    let header = if symbolic {
        // the trip count is a runtime value in [trips/2, trips)
        decls.push_str(" int n;");
        let half = (trips / 2).max(1);
        format!(
            "n = (n % {half} + {half}) % {half} + {};\nfor (i = {init}; i < n; i++)",
            init + trips - half
        )
    } else {
        match rng.range(0, 5) {
            0 => format!("for (i = {}; i > {init}; i--)", init + trips),
            1 => format!("for (i = {init}; i < {}; i += 2)", init + trips),
            _ => format!("for (i = {init}; i < {}; i++)", init + trips),
        }
    };
    GenLoop {
        source: format!("{decls}\n{header} {{\n{body}}}\n"),
        guarded,
        symbolic,
        trips,
    }
}

/// Draw `count` loops from one seeded stream. Body sizes cycle through
/// the shape's range, so every seed has the same share of each size and
/// the seed varies only what the bodies contain: compile time grows
/// steeply with body size, and a random mix of sizes would make the
/// per-seed totals spread widely.
pub fn gen_loops(seed: u64, count: usize, shape: &Shape) -> Vec<GenLoop> {
    let mut rng = Rng::new(seed);
    let (lo, hi) = shape.stmts;
    (0..count)
        .map(|k| gen_sized(&mut rng, shape, (lo + k as i64 % (hi - lo + 1)) as usize))
        .collect()
}

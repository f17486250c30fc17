//! Golden pin of the exact scheduler's search. A fixed, seeded set of
//! bodies whose optimal II sits above the MII, so every solve ends in a
//! refutation at `II − 1` with a minimized unsat core. Each result's II,
//! order, solver statistics and certificate are digested and pinned: a
//! change to the SAT engine or to core minimization that alters a single
//! decision, propagation, conflict or proof clause fails here, even where
//! the batch counters (which cover few refuting loops) would not move.

use slc_exact::{check_certificate, identity_feasible, Dep, ExactResult, ExactScheduler};

/// Refuting solves pinned below.
const CASES: usize = 60;

/// FNV-1a digest of each result's `(ii, order, stats, certificate)`, in
/// generation order.
const GOLDEN: [u64; CASES] = [
    0x6018e37502517667,
    0xcc4d59d1f088b9d7,
    0xb8f1e178dcc8825f,
    0x42ba31b815aec7ba,
    0x8c26275e449effbd,
    0x2ca6adc414c2b5c4,
    0x67280381fdcc19ea,
    0x5683f5a18bad9756,
    0x9f1b715f13e8b800,
    0x412b424719853daa,
    0x763c21f87dc21002,
    0xc4a30f4c5d6e4582,
    0x79f95ed9aa59aa65,
    0xb6382e4a44f365a3,
    0x5c16fa94bd318095,
    0xa2ad506c8e4f2841,
    0xbdd7a5604a4611dd,
    0x45bd069dbc0f6457,
    0x861fe8fb880d775d,
    0x672eea222200b53a,
    0xff271865cab5b901,
    0x11e2b021261d052c,
    0xc65fd50ec5b30171,
    0x680fc116aa8e792f,
    0x978b48556783692b,
    0x90d2a5d2b9bf14d3,
    0x8c22ba26122d9337,
    0xbdc931db599e553b,
    0x75dab8b4265f3a49,
    0xe28d42096e205d23,
    0xa3f7c6dc96d36f40,
    0x5962731e01aa6710,
    0x3a2b4ea644db835f,
    0x18d1ab31cf442e1a,
    0x313143e79842f476,
    0xab63f7d9915065e5,
    0x5744725711c9a47b,
    0x6021871563b767b0,
    0xe9668ae6aacde27f,
    0x8e72128f264fab52,
    0x486171b623d0752f,
    0x7214316873f8c940,
    0xa3fe42bb21cfeac1,
    0x2c68db6473ffd85b,
    0x4df8b987439c1e56,
    0xc145a9a1610ab4f3,
    0xe77f91f519b5faeb,
    0xfa91a951325813a8,
    0x8eb97c9e291cdde4,
    0x02e5b781eb3fd10e,
    0xf50a691c575cbf99,
    0xe46d9f68280a2b4e,
    0x3b7dc17756d315f8,
    0xa27a8d7961faddba,
    0xef0847366218055b,
    0x6b6e37caf6c43a28,
    0xbb12842506a28d0e,
    0x82089b1ca0729455,
    0x94d57853d5edb942,
    0x8b80070f9e353b7a,
];

/// xorshift64: the bodies must not depend on any library's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A random body of 4–7 MIs: forward distance-0 edges, distance-1 and
/// distance-2 edges, and distance-1 pairs in both directions.
fn body(rng: &mut Rng) -> (usize, Vec<Dep>) {
    let n = 4 + rng.below(4) as usize;
    let dep = |from, to, d| Dep {
        from,
        to,
        dist: Some(d),
    };
    let mut deps = Vec::new();
    for _ in 0..3 + rng.below(8) {
        let (a, b) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
        if a == b {
            continue;
        }
        match rng.below(4) {
            0 => deps.push(dep(a.min(b), a.max(b), 0)),
            1 => deps.push(dep(a, b, 1)),
            2 => deps.push(dep(a, b, 2)),
            _ => deps.extend([dep(a, b, 1), dep(b, a, 1)]),
        }
    }
    (n, deps)
}

/// The first [`CASES`] seeded bodies whose exact solve needs a proof.
fn refuting_results() -> Vec<(usize, Vec<Dep>, ExactResult)> {
    let mut rng = Rng(0x5eed_0f_51a5);
    let sched = ExactScheduler::default();
    let mut out = Vec::new();
    while out.len() < CASES {
        let (n, deps) = body(&mut rng);
        let Some(max_ii) = (1..n as i64).find(|&ii| identity_feasible(&deps, n, ii)) else {
            continue;
        };
        if let Some(r) = sched.solve(&deps, n, max_ii) {
            if r.certificate.proof.is_some() {
                out.push((n, deps, r));
            }
        }
    }
    out
}

#[test]
fn refuting_solves_match_the_golden_digests() {
    let results = refuting_results();
    let got: Vec<u64> = results
        .iter()
        .map(|(_, _, r)| {
            fnv1a(&format!(
                "{} {:?} {:?} {:?}",
                r.ii, r.order, r.stats, r.certificate
            ))
        })
        .collect();
    let listing: String = got.iter().map(|d| format!("    {d:#018x},\n")).collect();
    assert_eq!(
        got, GOLDEN,
        "search trajectory changed; new digests:\n{listing}"
    );
}

/// The pinned set is a real workout: every certificate re-checks, and the
/// proofs span several IIs and body sizes.
#[test]
fn golden_set_certificates_recheck() {
    let results = refuting_results();
    for (n, deps, r) in &results {
        let mut sigma = vec![0usize; *n];
        for (p, &k) in r.order.iter().enumerate() {
            sigma[k] = p;
        }
        let emitted: Vec<Dep> = deps
            .iter()
            .map(|d| Dep {
                from: sigma[d.from],
                to: sigma[d.to],
                dist: d.dist,
            })
            .collect();
        check_certificate(&emitted, *n, &r.certificate).unwrap();
    }
    let sizes: std::collections::BTreeSet<usize> = results.iter().map(|(n, _, _)| *n).collect();
    assert!(sizes.len() >= 3, "body sizes {sizes:?}");
    let conflicts: u64 = results.iter().map(|(_, _, r)| r.stats.conflicts).sum();
    assert!(conflicts > 0);
}

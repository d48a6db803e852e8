//! The replica router against the retired per-transaction materializer.
//!
//! `route_replicated` writes each physical plan into a reused template and
//! picks each file's targets once per run of its accesses; the reference
//! (`support/materialize.rs`) built a fresh plan through a per-file map.
//! On generated templates both must return the same plan, or the same
//! unavailable file, and leave the read cursor at the same value — for
//! every replication factor, both replica controls, any set of down nodes
//! and with the stale-replica defect hook on or off.

#[path = "support/materialize.rs"]
mod materialize;

use ddbm_config::{Algorithm, Config, ReplicationParams};
use ddbm_core::workload::{generate_template, route_replicated, TxnTemplate};
use denet::SimRng;
use materialize::materialize_replicated;
use proptest::prelude::*;

/// A machine of `nodes` processing nodes declustered `degree` ways, with
/// `factor` copies of every file under ROWA or a read/write quorum pair
/// whose sizes add up to more than `factor`.
fn machine() -> impl Strategy<Value = Config> {
    let shapes = vec![
        (1, 1),
        (2, 1),
        (2, 2),
        (4, 2),
        (4, 4),
        (8, 1),
        (8, 4),
        (8, 8),
    ];
    let draws = (
        any::<usize>(),
        any::<bool>(),
        any::<usize>(),
        any::<usize>(),
    );
    (prop::sample::select(shapes), draws).prop_map(|((nodes, degree), (f, rowa, r, w))| {
        let mut c = Config::paper(Algorithm::TwoPhaseLocking, nodes, degree, 1.0);
        let factor = 1 + f % nodes.min(4);
        c.replication = if rowa {
            ReplicationParams::rowa(factor)
        } else {
            let r = 1 + r % factor;
            ReplicationParams::quorum(factor, r, factor + 1 - r + w % r)
        };
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn router_matches_the_retired_materializer(
        c in machine(),
        seed in any::<u64>(),
        down in prop::collection::vec(prop_oneof![1 => Just(true), 3 => Just(false)], 9),
        start in prop_oneof![0u64..64, any::<u64>()],
        skip in any::<bool>(),
    ) {
        let p = c.placement().expect("valid layout");
        let up: Vec<bool> = down.iter().map(|d| !d).collect();
        let mut rng = SimRng::from_seed(seed);
        // One output template across the case, so cohort and access
        // buffers left by earlier, differently shaped plans are reused.
        let mut out = TxnTemplate { relation: 0, cohorts: Vec::new() };
        let (mut rr_ref, mut rr_new) = (start, start);
        for k in 0..8 {
            let terminal = (seed as usize).wrapping_add(k * 17) % c.workload.num_terminals;
            let logical = generate_template(&c, &p, &mut rng, terminal);
            let want = materialize_replicated(&c, &p, &logical, &up, &mut rr_ref, skip);
            let got = route_replicated(&c, &p, &logical, |n| up[n.0], &mut rr_new, skip, &mut out);
            match want {
                Ok(plan) => {
                    prop_assert_eq!(got, Ok(()));
                    prop_assert_eq!(&out, &plan);
                }
                Err(file) => prop_assert_eq!(got, Err(file)),
            }
            prop_assert_eq!(rr_new, rr_ref, "read cursor after template {}", k);
        }
    }
}

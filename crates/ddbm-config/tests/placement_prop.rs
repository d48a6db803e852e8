//! Property tests of replicated placement: balance, replica distinctness,
//! and serde stability over the whole paper configuration family.

use ddbm_config::{DatabaseParams, FileId, Placement, ReplicationParams};
use proptest::prelude::*;

/// A paper-family layout problem: machine size, a declustering degree that
/// divides both the machine and the partition count, and a replication
/// factor that fits the machine.
fn layout_strategy() -> impl Strategy<Value = (DatabaseParams, usize, usize)> {
    let mut combos = Vec::new();
    for nodes in [1usize, 2, 4, 8] {
        for degree in [1usize, 2, 4, 8] {
            if degree > nodes {
                continue;
            }
            for factor in 1..=nodes.min(3) {
                combos.push((nodes, degree, factor));
            }
        }
    }
    prop::sample::select(combos)
        .prop_map(|(nodes, degree, factor)| (DatabaseParams::small(degree), nodes, factor))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every node stores the same number of file copies: the strided
    /// primary layout is perfectly balanced, and ring-successor replication
    /// preserves that balance exactly (each node picks up one extra copy
    /// per predecessor per factor step).
    #[test]
    fn replicated_layout_is_balanced(case in layout_strategy()) {
        let (db, nodes, factor) = case;
        let p = Placement::replicated_layout(&db, nodes, factor).expect("valid layout");
        let counts = p.files_per_node(nodes);
        prop_assert_eq!(counts.len(), nodes);
        let (min, max) = (
            *counts.iter().min().expect("non-empty"),
            *counts.iter().max().expect("non-empty"),
        );
        prop_assert!(max - min <= 1, "unbalanced: {:?}", counts);
        // The paper family is in fact perfectly balanced.
        prop_assert_eq!(counts, vec![db.num_files() * factor / nodes; nodes]);
    }

    /// No two copies of one file share a node, the primary comes first, and
    /// every copy lives on a real processing node.
    #[test]
    fn replicas_are_distinct_nodes(case in layout_strategy()) {
        let (db, nodes, factor) = case;
        let p = Placement::replicated_layout(&db, nodes, factor).expect("valid layout");
        for file in 0..db.num_files() {
            let replicas: Vec<_> = p.replicas(FileId(file), nodes).collect();
            prop_assert_eq!(replicas.len(), factor);
            prop_assert_eq!(replicas[0], p.node_of(FileId(file)));
            let mut ids: Vec<usize> = replicas.iter().map(|n| n.0).collect();
            prop_assert!(ids.iter().all(|n| (1..=nodes).contains(n)));
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), factor, "co-located replicas of file {}", file);
        }
    }

    /// Placements and replication parameters survive a JSON round-trip
    /// unchanged (the repro files freeze both).
    #[test]
    fn placement_and_params_roundtrip(case in layout_strategy()) {
        let (db, nodes, factor) = case;
        let p = Placement::replicated_layout(&db, nodes, factor).expect("valid layout");
        let json = serde_json::to_string(&p).expect("serializes");
        let back: Placement = serde_json::from_str(&json).expect("deserializes");
        prop_assert_eq!(back.factor(), p.factor());
        for file in 0..db.num_files() {
            prop_assert!(back
                .replicas(FileId(file), nodes)
                .eq(p.replicas(FileId(file), nodes)));
        }
        let params = if factor == 1 {
            ReplicationParams::default()
        } else {
            ReplicationParams::rowa(factor)
        };
        let pj = serde_json::to_string(&params).expect("serializes");
        let pback: ReplicationParams = serde_json::from_str(&pj).expect("deserializes");
        prop_assert_eq!(pback, params);
    }
}

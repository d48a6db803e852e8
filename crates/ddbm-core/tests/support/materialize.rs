//! `materialize_replicated` as it was before replica routing became the one
//! allocation-free `ddbm_core::workload::route_replicated`. Kept verbatim
//! (apart from its imports and the `allow` for the `into_iter` that
//! `Placement::replicas` no longer needs now that it returns an iterator)
//! as the reference the new router must agree with. The original docs
//! follow.

use ddbm_config::{Config, FileId, NodeId, Placement, ReplicaControl};
use ddbm_core::workload::{CohortSpec, TxnTemplate};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Route a logical (single-copy) template onto a replicated machine.
///
/// The logical template produced by [`generate_template`] names each file's
/// *primary* node; under replication every access must instead touch a set
/// of live replicas chosen by the configured replica control:
///
/// * reads go to `read_quorum()` live replicas, rotating the starting
///   replica via the caller's `read_rr` cursor so read load spreads over
///   the replica set deterministically (no RNG draws — a disabled or
///   `factor = 1` configuration never calls this function and stays
///   bit-identical to the single-copy simulator);
/// * ROWA writes go to *every* live replica (write-all-available); quorum
///   writes go to the first `write_quorum()` live replicas in replica-set
///   order (primary-preferred).
///
/// Per file, the read and write target sets are chosen once and shared by
/// all of the transaction's pages in that file. Returns the file that could
/// not assemble a live read or write set, which the caller reports as a
/// `ReplicaUnavailable` abort. `skip_replica_write` is the deliberate
/// stale-read defect hook: it silently drops the last replica from every
/// multi-replica write set, leaving that replica stale after commit.
#[allow(clippy::useless_conversion)]
pub fn materialize_replicated(
    config: &Config,
    placement: &Placement,
    logical: &TxnTemplate,
    node_up: &[bool],
    read_rr: &mut u64,
    skip_replica_write: bool,
) -> Result<TxnTemplate, FileId> {
    let n = config.system.num_proc_nodes;
    let rp = &config.replication;
    let rowa = rp.control == ReplicaControl::ReadOneWriteAll;
    let (need_r, need_w) = (rp.read_quorum(), rp.write_quorum());
    let mut targets: HashMap<FileId, (Vec<NodeId>, Vec<NodeId>)> = HashMap::new();
    let mut cohorts: Vec<CohortSpec> = Vec::new();
    for spec in &logical.cohorts {
        for acc in &spec.accesses {
            let file = acc.page.file;
            let (reads, writes) = match targets.entry(file) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let live: Vec<NodeId> = placement
                        .replicas(file, n)
                        .into_iter()
                        .filter(|r| node_up[r.0])
                        .collect();
                    if live.is_empty() || live.len() < need_r || live.len() < need_w {
                        return Err(file);
                    }
                    let mut writes: Vec<NodeId> = if rowa {
                        live.clone()
                    } else {
                        live.iter().copied().take(need_w).collect()
                    };
                    if skip_replica_write && writes.len() > 1 {
                        writes.pop();
                    }
                    let start = (*read_rr as usize) % live.len();
                    *read_rr += 1;
                    let reads: Vec<NodeId> = (0..need_r)
                        .map(|k| live[(start + k) % live.len()])
                        .collect();
                    e.insert((reads, writes))
                }
            };
            let (reads, writes) = (&*reads, &*writes);
            for node in if acc.write { writes } else { reads } {
                match cohorts.iter_mut().find(|c| c.node == *node) {
                    Some(c) => c.accesses.push(*acc),
                    None => cohorts.push(CohortSpec {
                        node: *node,
                        accesses: vec![*acc],
                    }),
                }
            }
        }
    }
    cohorts.sort_by_key(|c| c.node);
    Ok(TxnTemplate {
        relation: logical.relation,
        cohorts,
    })
}

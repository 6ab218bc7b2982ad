//! Redistribution planning — the communication an HPF compiler generates
//! for a distribution change.
//!
//! Semantics: each element's *sender* is its unique owner under the source
//! distribution (if the source is replicated, every receiver already holds
//! the data and only pays a local copy to the new layout). Each receiver
//! needs its owned region under the destination distribution. Overlap
//! volumes are computed dimension-wise (range-list intersections), and
//! only nodes that own data take part in the pairwise walk: with `S`
//! source and `R` destination owners, planning costs `O(P + S·R)`
//! range-list intersections, independent of the array size. Airshed's
//! transport distribution has at most `layers` owners, so pricing a
//! placement grows linearly in `P`.
//!
//! The resulting per-node loads reproduce the paper's three §4.2
//! redistribution cost equations exactly (see the tests).

use crate::dist::{Distribution, OwnedRegion};
use airshed_machine::cost::NodeCommLoad;

/// Canonical labels of the Airshed redistribution edges. The driver, the
/// plan graph and the predictor all match on these, so they live in one
/// place.
pub mod labels {
    /// Replicated (I/O) state to the transport layer distribution.
    pub const REPL_TO_TRANS: &str = "D_Repl->D_Trans";
    /// Transport layer distribution to the chemistry column distribution.
    pub const TRANS_TO_CHEM: &str = "D_Trans->D_Chem";
    /// Chemistry column distribution back to the replicated state.
    pub const CHEM_TO_REPL: &str = "D_Chem->D_Repl";
    /// Transport distribution to replicated at the hour boundary.
    pub const TRANS_TO_REPL: &str = "D_Trans->D_Repl";
}

/// One pairwise transfer, for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    pub from: usize,
    pub to: usize,
    pub elems: usize,
}

/// A planned redistribution.
#[derive(Debug, Clone)]
pub struct RedistPlan {
    /// Per-node communication loads (index = node id).
    pub loads: Vec<NodeCommLoad>,
    /// Pairwise transfers (`from != to`); local copies are in `loads`.
    pub transfers: Vec<Transfer>,
    /// Human-readable label, e.g. `"D_Trans->D_Chem"`.
    pub label: &'static str,
}

impl RedistPlan {
    /// Total bytes crossing the network.
    pub fn total_bytes_sent(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_sent).sum()
    }

    /// Total bytes received.
    pub fn total_bytes_recv(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_recv).sum()
    }

    /// Total messages.
    pub fn total_messages(&self) -> usize {
        self.loads.iter().map(|l| l.msgs_sent).sum()
    }

    /// Total bytes copied node-locally (the `c` term of `Ct = L·m +
    /// G·b + H·c`) — the copies the zero-copy roadmap item wants
    /// eliminated, and what the copy-traffic counters account per
    /// execution of this plan.
    pub fn total_bytes_copied(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_copied).sum()
    }

    /// Extract the comm edge this plan contributes to an execution
    /// graph: its label plus the per-node `(m, b, c)` loads, detached
    /// from the pairwise transfer detail. `airshed-core`'s
    /// `plan::PhaseGraph` attaches these to its communication edges.
    pub fn edge(&self) -> PlanEdge {
        PlanEdge {
            label: self.label,
            loads: self.loads.clone(),
        }
    }
}

/// The execution-plan view of a redistribution: what a plan-graph comm
/// edge carries. Unlike [`RedistPlan`] it has no pairwise transfer list —
/// only the per-node message/byte/copy loads the cost model consumes.
#[derive(Debug, Clone)]
pub struct PlanEdge {
    /// Redistribution label, e.g. `"D_Trans->D_Chem"`.
    pub label: &'static str,
    /// Per-node communication loads (index = node id).
    pub loads: Vec<NodeCommLoad>,
}

impl PlanEdge {
    /// Total bytes leaving any node over this edge.
    pub fn total_bytes_sent(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_sent).sum()
    }

    /// Total bytes arriving at any node over this edge.
    pub fn total_bytes_recv(&self) -> usize {
        self.loads.iter().map(|l| l.bytes_recv).sum()
    }

    /// Byte conservation: everything sent is received. Holds for every
    /// planner lowering (flat pairwise, pure-copy, relayed broadcast).
    pub fn conserves_bytes(&self) -> bool {
        self.total_bytes_sent() == self.total_bytes_recv()
    }
}

/// Plan the redistribution of a `shape`-sized array from `src` to `dst`
/// over `p` nodes with `word_size`-byte elements.
pub fn plan(
    shape: &[usize],
    src: &Distribution,
    dst: &Distribution,
    p: usize,
    word_size: usize,
) -> RedistPlan {
    assert_eq!(src.ndims(), shape.len());
    assert_eq!(dst.ndims(), shape.len());
    let mut loads = vec![NodeCommLoad::default(); p];
    let mut transfers = Vec::new();

    if src == dst {
        return RedistPlan {
            loads,
            transfers,
            label: "no-op",
        };
    }

    if src.is_replicated() {
        // Every node already holds all data: the change is a local
        // re-layout of the node's new owned region (the paper's
        // D_Repl -> D_Trans case, pure H cost).
        for (node, load) in loads.iter_mut().enumerate() {
            let vol = dst.owned_volume(shape, p, node);
            load.bytes_copied = vol * word_size;
        }
        return RedistPlan {
            loads,
            transfers,
            label: "repl->dist",
        };
    }

    // Replication from few sources: a flat pairwise plan would make each
    // source send P copies of its whole block — no compiler generates
    // that. Fx-style collective communication lowers it to a relayed
    // (segmented binomial) broadcast: every node receives the array once
    // and relays roughly what it received, paying ~log2(P) message
    // startups. Gathers with ~P sources (e.g. D_Chem -> D_Repl) keep the
    // flat plan, whose cost is the paper's `2LP + G·volume` equation.
    if dst.is_replicated() {
        let owners = (0..p)
            .filter(|&n| src.owned_volume(shape, p, n) > 0)
            .count();
        if owners * 2 <= p {
            let total_bytes: usize = shape.iter().product::<usize>() * word_size;
            let rounds = p.next_power_of_two().trailing_zeros().max(1) as usize;
            for (node, load) in loads.iter_mut().enumerate() {
                let own = src.owned_volume(shape, p, node) * word_size;
                let moved = total_bytes - own;
                load.bytes_recv = moved;
                load.bytes_sent = moved; // relay share
                load.msgs_sent = rounds;
                load.msgs_recv = rounds;
                load.bytes_copied = own;
            }
            return RedistPlan {
                loads,
                transfers,
                label: "dist->repl (broadcast)",
            };
        }
    }

    // Source has unique owners. Each receiver r needs its dst region; the
    // part it already owns under src is a local copy, the rest arrives
    // from the unique src owners. A node owning nothing on a side has no
    // overlap with anyone there, so the walk visits owner pairs only
    // (sender-major, receiver-minor, as a full P×P walk would).
    let src_owners = owned_regions(shape, src, p);
    let dst_owners = owned_regions(shape, dst, p);

    for (s, src_region) in &src_owners {
        for (r, dst_region) in &dst_owners {
            let (s, r) = (*s, *r);
            let vol = src_region.intersection_volume(dst_region);
            if vol == 0 {
                continue;
            }
            let bytes = vol * word_size;
            if s == r {
                loads[r].bytes_copied += bytes;
            } else {
                // Message startups scale with the contiguous pieces of
                // the transfer: a BLOCK↔BLOCK overlap is one message,
                // while interleaved (CYCLIC) ownership shatters the same
                // bytes into strided pieces, each paying its own `L`.
                let msgs = src_region.intersection_fragments(dst_region);
                loads[s].msgs_sent += msgs;
                loads[s].bytes_sent += bytes;
                loads[r].msgs_recv += msgs;
                loads[r].bytes_recv += bytes;
                transfers.push(Transfer {
                    from: s,
                    to: r,
                    elems: vol,
                });
            }
        }
    }
    RedistPlan {
        loads,
        transfers,
        label: "dist->dist",
    }
}

/// The nodes that own data under `dist`, in ascending order, with their
/// owned regions.
fn owned_regions(shape: &[usize], dist: &Distribution, p: usize) -> Vec<(usize, OwnedRegion)> {
    (0..p)
        .filter(|&n| dist.owned_volume(shape, p, n) > 0)
        .map(|n| (n, dist.owned(shape, p, n)))
        .collect()
}

/// Convenience: the three Airshed redistributions for a concentration
/// array `A(species, layers, nodes)`.
pub struct AirshedRedists {
    pub repl_to_trans: RedistPlan,
    pub trans_to_chem: RedistPlan,
    pub chem_to_repl: RedistPlan,
}

/// Plan all three main-loop redistribution steps for the given array
/// shape and node count.
pub fn airshed_redists(shape: &[usize; 3], p: usize, word_size: usize) -> AirshedRedists {
    let d_repl = Distribution::replicated(3);
    let d_trans = Distribution::block(3, 1);
    let d_chem = Distribution::block(3, 2);
    let mut repl_to_trans = plan(shape, &d_repl, &d_trans, p, word_size);
    repl_to_trans.label = labels::REPL_TO_TRANS;
    let mut trans_to_chem = plan(shape, &d_trans, &d_chem, p, word_size);
    trans_to_chem.label = labels::TRANS_TO_CHEM;
    let mut chem_to_repl = plan(shape, &d_chem, &d_repl, p, word_size);
    chem_to_repl.label = labels::CHEM_TO_REPL;
    AirshedRedists {
        repl_to_trans,
        trans_to_chem,
        chem_to_repl,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use airshed_machine::MachineProfile;

    const SHAPE: [usize; 3] = [35, 5, 700]; // the LA data set
    const W: usize = 8;

    #[test]
    fn conservation_sent_equals_received() {
        for p in [2usize, 4, 8, 16, 64] {
            let r = airshed_redists(&SHAPE, p, W);
            for plan in [&r.repl_to_trans, &r.trans_to_chem, &r.chem_to_repl] {
                assert_eq!(
                    plan.total_bytes_sent(),
                    plan.total_bytes_recv(),
                    "{} at p={p}",
                    plan.label
                );
            }
        }
    }

    #[test]
    fn every_receiver_gets_its_region() {
        // For a distributed source: sum of inbound transfer volumes plus
        // the local copy must equal the receiver's destination volume.
        let p = 8;
        let src = Distribution::block(3, 1);
        let dst = Distribution::block(3, 2);
        let plan = plan(&SHAPE, &src, &dst, p, W);
        for r in 0..p {
            let inbound: usize = plan
                .transfers
                .iter()
                .filter(|t| t.to == r)
                .map(|t| t.elems)
                .sum();
            let local = plan.loads[r].bytes_copied / W;
            let need = dst.owned_volume(&SHAPE, p, r);
            assert_eq!(inbound + local, need, "receiver {r}");
        }
    }

    #[test]
    fn repl_to_trans_is_pure_local_copy() {
        // Paper: "This causes a local data copy but no actual transfer of
        // data across nodes", Ct = H·ceil(layers/min(layers,P))·species·nodes·W.
        for p in [4usize, 8, 32, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let plan = &r.repl_to_trans;
            assert_eq!(plan.total_messages(), 0, "p={p}");
            assert_eq!(plan.total_bytes_sent(), 0);
            let local_layers = SHAPE[1].div_ceil(SHAPE[1].min(p));
            let expect = local_layers * SHAPE[0] * SHAPE[2] * W;
            let max_copy = plan.loads.iter().map(|l| l.bytes_copied).max().unwrap();
            assert_eq!(max_copy, expect, "p={p}");
        }
    }

    #[test]
    fn trans_to_chem_is_sender_dominated() {
        // Paper: Ct = L·P + G·ceil(layers/min(layers,P))·species·nodes·W.
        // Senders are the layer holders; each sends to every chem node.
        for p in [8usize, 32, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let plan = &r.trans_to_chem;
            // A layer holder sends to every other node that owns a chem
            // block (all of them for moderate P; ceil blocks can leave
            // trailing nodes empty at large P).
            let chem = Distribution::block(3, 2);
            let owners = (0..p)
                .filter(|&n| chem.owned_volume(&SHAPE, p, n) > 0)
                .count();
            let max_msgs_sent = plan.loads.iter().map(|l| l.msgs_sent).max().unwrap();
            assert_eq!(max_msgs_sent, owners - 1, "p={p}");
            // Max bytes sent per node ~ the holder's full layer minus the
            // part it keeps locally.
            let layer_bytes = SHAPE[0] * SHAPE[2] * W;
            let max_sent = plan.loads.iter().map(|l| l.bytes_sent).max().unwrap();
            assert!(
                max_sent <= layer_bytes && max_sent >= layer_bytes * 4 / 5,
                "p={p}: sent {max_sent} vs layer {layer_bytes}"
            );
        }
    }

    #[test]
    fn chem_to_repl_receives_whole_array() {
        // Paper: Ct = 2L·P + G·layers·species·nodes·W — every node must
        // end up with the entire array.
        let p = 16;
        let r = airshed_redists(&SHAPE, p, W);
        let plan = &r.chem_to_repl;
        let array_bytes = SHAPE.iter().product::<usize>() * W;
        for (node, load) in plan.loads.iter().enumerate() {
            let own = Distribution::block(3, 2).owned_volume(&SHAPE, p, node) * W;
            assert_eq!(
                load.bytes_recv + load.bytes_copied,
                array_bytes,
                "node {node} must assemble the full array"
            );
            assert_eq!(load.bytes_copied, own);
            // Sends its block to everyone else, receives from everyone.
            if own > 0 {
                assert_eq!(load.msgs_sent, p - 1);
            }
        }
    }

    #[test]
    fn paper_cost_equations_reproduced_on_t3e() {
        // Cross-check the planned loads against the paper's closed-form
        // cost equations for the LA data set on the T3E.
        let m = MachineProfile::t3e();
        let (species, layers, nodes) = (35f64, 5f64, 700f64);
        for p in [4usize, 8, 16, 32, 64, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let pf = p as f64;
            let local_layers = (layers / layers.min(pf)).ceil();

            // D_Repl -> D_Trans: H * ceil * species * nodes * W.
            let c1_model = m.copy_cost * local_layers * species * nodes * W as f64;
            let c1_plan = m.comm_phase_seconds(&r.repl_to_trans.loads);
            assert!(
                (c1_plan - c1_model).abs() / c1_model < 1e-9,
                "p={p}: D_Repl->D_Trans plan {c1_plan} vs model {c1_model}"
            );

            // D_Trans -> D_Chem: L*P + G*ceil*species*nodes*W (model uses
            // the full layer volume; the plan subtracts the locally-kept
            // part, so allow the small difference).
            let c2_model = m.latency * pf + m.byte_cost * local_layers * species * nodes * W as f64;
            let c2_plan = m.comm_phase_seconds(&r.trans_to_chem.loads);
            assert!(
                (c2_plan - c2_model).abs() / c2_model < 0.35,
                "p={p}: D_Trans->D_Chem plan {c2_plan} vs model {c2_model}"
            );

            // D_Chem -> D_Repl: 2LP + G*layers*species*nodes*W.
            let c3_model = 2.0 * m.latency * pf + m.byte_cost * layers * species * nodes * W as f64;
            let c3_plan = m.comm_phase_seconds(&r.chem_to_repl.loads);
            assert!(
                (c3_plan - c3_model).abs() / c3_model < 0.35,
                "p={p}: D_Chem->D_Repl plan {c3_plan} vs model {c3_model}"
            );
        }
    }

    #[test]
    fn few_source_replication_uses_broadcast_lowering() {
        // D_Trans -> D_Repl at large P: 5 layer holders replicating to
        // 128 nodes must not cost 128 full-layer sends per holder.
        let m = MachineProfile::t3e();
        let src = Distribution::block(3, 1);
        let dst = Distribution::replicated(3);
        let p128 = plan(&SHAPE, &src, &dst, 128, W);
        let cost = m.comm_phase_seconds(&p128.loads);
        // Must be the same order as the balanced D_Chem -> D_Repl gather,
        // not ~P/owners times larger.
        let gather = airshed_redists(&SHAPE, 128, W).chem_to_repl;
        let gather_cost = m.comm_phase_seconds(&gather.loads);
        assert!(
            cost < 3.0 * gather_cost,
            "broadcast {cost} vs gather {gather_cost}"
        );
        // Every node ends up with the full array volume.
        let total = SHAPE.iter().product::<usize>() * W;
        for l in &p128.loads {
            assert_eq!(l.bytes_recv + l.bytes_copied, total);
        }
        // Small P with many owners keeps the flat plan (paper equation).
        let p8 = plan(&SHAPE, &src, &dst, 8, W);
        assert_eq!(p8.label, "dist->dist");
    }

    #[test]
    fn noop_redistribution_is_free() {
        let d = Distribution::block(3, 2);
        let p = plan(&SHAPE, &d.clone(), &d, 8, W);
        assert!(p.loads.iter().all(|l| l.is_idle()));
        assert!(p.transfers.is_empty());
    }

    #[test]
    fn cost_ordering_matches_figure5() {
        // Figure 5: D_Chem->D_Repl is the most expensive step;
        // D_Repl->D_Trans and D_Trans->D_Chem are cheaper (beyond the
        // small-P regime).
        let m = MachineProfile::t3e();
        for p in [16usize, 32, 64, 128] {
            let r = airshed_redists(&SHAPE, p, W);
            let c1 = m.comm_phase_seconds(&r.repl_to_trans.loads);
            let c2 = m.comm_phase_seconds(&r.trans_to_chem.loads);
            let c3 = m.comm_phase_seconds(&r.chem_to_repl.loads);
            assert!(c3 > c2, "p={p}: {c3} !> {c2}");
            assert!(c3 > c1, "p={p}: {c3} !> {c1}");
        }
    }
}

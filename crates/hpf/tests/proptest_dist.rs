//! Property-based tests for distributions and redistribution planning.

use airshed_hpf::array::DistributedArray;
use airshed_hpf::dist::{DimDist, Distribution};
use airshed_hpf::redist::{plan, RedistPlan, Transfer};
use airshed_machine::cost::NodeCommLoad;
use proptest::prelude::*;

/// Strategy: an arbitrary single-dim distribution kind.
fn dim_kind() -> impl Strategy<Value = DimDist> {
    prop_oneof![
        Just(DimDist::Block),
        Just(DimDist::Cyclic),
        (1usize..5).prop_map(DimDist::BlockCyclic),
    ]
}

/// Strategy: a distribution over `ndims` dims with zero or one
/// distributed dim.
fn distribution(ndims: usize) -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::replicated(ndims)),
        (0..ndims, dim_kind()).prop_map(move |(dim, kind)| {
            let mut dims = vec![DimDist::Collapsed; ndims];
            dims[dim] = kind;
            Distribution::new(dims)
        }),
    ]
}

/// Reference planner: every node's region is built and all P×P
/// sender×receiver pairs are visited, sender-major. `plan` must match it
/// exactly while visiting owner pairs only.
fn reference_plan(
    shape: &[usize],
    src: &Distribution,
    dst: &Distribution,
    p: usize,
    word_size: usize,
) -> RedistPlan {
    let volume = |d: &Distribution, n: usize| d.owned(shape, p, n).volume();
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
        for (node, load) in loads.iter_mut().enumerate() {
            load.bytes_copied = volume(dst, node) * word_size;
        }
        return RedistPlan {
            loads,
            transfers,
            label: "repl->dist",
        };
    }
    if dst.is_replicated() {
        let owners = (0..p).filter(|&n| volume(src, n) > 0).count();
        if owners * 2 <= p {
            let total_bytes: usize = shape.iter().product::<usize>() * word_size;
            let rounds = p.next_power_of_two().trailing_zeros().max(1) as usize;
            for (node, load) in loads.iter_mut().enumerate() {
                let own = volume(src, node) * word_size;
                let moved = total_bytes - own;
                load.bytes_recv = moved;
                load.bytes_sent = moved;
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
    let src_regions: Vec<_> = (0..p).map(|n| src.owned(shape, p, n)).collect();
    let dst_regions: Vec<_> = (0..p).map(|n| dst.owned(shape, p, n)).collect();
    for s in 0..p {
        for r in 0..p {
            let vol = src_regions[s].intersection_volume(&dst_regions[r]);
            if vol == 0 {
                continue;
            }
            let bytes = vol * word_size;
            if s == r {
                loads[r].bytes_copied += bytes;
            } else {
                let msgs = src_regions[s].intersection_fragments(&dst_regions[r]);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The owner-sparse planner is the all-pairs planner, exactly: same
    /// per-node loads, same transfers in the same order, same label —
    /// for every src/dst pair of replicated, BLOCK, CYCLIC and CYCLIC(b),
    /// including node counts far above the owner counts, where most
    /// nodes own nothing on one side.
    #[test]
    fn plan_matches_all_pairs_reference(
        s0 in 1usize..36,
        s1 in 1usize..6,
        s2 in 1usize..65,
        p in 1usize..257,
        src_dim in 0usize..3,
        dst_dim in 0usize..3,
        b in 1usize..9,
    ) {
        let shape = [s0, s1, s2];
        let kinds = |dim: usize| {
            [
                Distribution::replicated(3),
                Distribution::block(3, dim),
                Distribution::cyclic(3, dim),
                Distribution::block_cyclic(3, dim, b),
            ]
        };
        for src in &kinds(src_dim) {
            for dst in &kinds(dst_dim) {
                let got = plan(&shape, src, dst, p, 8);
                let want = reference_plan(&shape, src, dst, p, 8);
                prop_assert_eq!(got.label, want.label);
                prop_assert_eq!(got.loads, want.loads);
                prop_assert_eq!(got.transfers, want.transfers);
            }
        }
    }

    /// The closed-form owned volume is the volume of the owned region.
    #[test]
    fn owned_volume_is_region_volume(
        s0 in 1usize..36,
        s1 in 1usize..6,
        s2 in 1usize..65,
        p in 1usize..257,
        dist in distribution(3),
    ) {
        let shape = [s0, s1, s2];
        for node in 0..p {
            prop_assert_eq!(
                dist.owned_volume(&shape, p, node),
                dist.owned(&shape, p, node).volume()
            );
        }
    }

    /// Any distributed dimension's ownership is an exact partition of
    /// the extent: every index owned exactly once.
    #[test]
    fn ownership_partitions_extent(
        n in 1usize..200,
        p in 1usize..20,
        kind in dim_kind(),
    ) {
        let d = Distribution::new(vec![kind]);
        let mut owned = vec![0u32; n];
        for node in 0..p {
            for r in d.owned_dim(0, n, p, node) {
                for i in r {
                    owned[i] += 1;
                }
            }
        }
        prop_assert!(owned.iter().all(|&c| c == 1), "{owned:?}");
    }

    /// Owned volumes over all nodes sum to the array size for distributed
    /// layouts (and to p × size for replicated ones).
    #[test]
    fn volumes_account_for_every_element(
        s0 in 1usize..8,
        s1 in 1usize..8,
        s2 in 1usize..30,
        p in 1usize..12,
        dist in distribution(3),
    ) {
        let shape = [s0, s1, s2];
        let total: usize = shape.iter().product();
        let sum: usize = (0..p).map(|n| dist.owned_volume(&shape, p, n)).sum();
        if dist.is_replicated() {
            prop_assert_eq!(sum, total * p);
        } else {
            prop_assert_eq!(sum, total);
        }
    }

    /// A redistribution plan conserves bytes: total sent == total
    /// received, and per-receiver inbound + local copy covers its region.
    #[test]
    fn plans_conserve_data(
        s0 in 1usize..6,
        s1 in 1usize..6,
        s2 in 1usize..25,
        p in 1usize..10,
        src in distribution(3),
        dst in distribution(3),
    ) {
        let shape = [s0, s1, s2];
        let pl = plan(&shape, &src, &dst, p, 8);
        prop_assert_eq!(pl.total_bytes_sent(), pl.total_bytes_recv());
        // For the flat pairwise case, check per-receiver coverage.
        if pl.label == "dist->dist" {
            for r in 0..p {
                let inbound: usize = pl
                    .transfers
                    .iter()
                    .filter(|t| t.to == r)
                    .map(|t| t.elems)
                    .sum();
                let local = pl.loads[r].bytes_copied / 8;
                prop_assert_eq!(inbound + local, dst.owned_volume(&shape, p, r));
            }
        }
    }

    /// Scatter → gather is the identity for any distribution, and a full
    /// redistribution cycle preserves every element.
    #[test]
    fn array_roundtrip_preserves_data(
        s0 in 1usize..5,
        s1 in 1usize..5,
        s2 in 1usize..20,
        p in 1usize..8,
        a in distribution(3),
        b in distribution(3),
        seed in 0u64..1000,
    ) {
        let shape = [s0, s1, s2];
        let total: usize = shape.iter().product();
        // Deterministic pseudo-random data from the seed.
        let global: Vec<f64> = (0..total)
            .map(|i| ((i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed) % 1000) as f64)
            .collect();
        let mut arr = DistributedArray::scatter(&global, &shape, a, p);
        prop_assert_eq!(arr.gather(), global.clone());
        arr.redistribute(b, 8);
        prop_assert_eq!(arr.gather(), global.clone());
        arr.check_consistent().map_err(TestCaseError::fail)?;
    }

    /// The useful-parallelism formula is min(extent, p) on the
    /// distributed dim and monotone in p.
    #[test]
    fn useful_parallelism_properties(
        extent in 1usize..100,
        p1 in 1usize..64,
        p2 in 1usize..64,
    ) {
        let d = Distribution::block(1, 0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(d.useful_parallelism(&[extent], lo) <= d.useful_parallelism(&[extent], hi));
        prop_assert_eq!(d.useful_parallelism(&[extent], hi), extent.min(hi));
    }
}

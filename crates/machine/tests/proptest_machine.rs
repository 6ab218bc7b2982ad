//! Property-based tests for the virtual machine: clock monotonicity,
//! cost-model monotonicity and phase accounting consistency.

use airshed_machine::accounting::{PhaseCategory, PhaseKind};
use airshed_machine::cost::NodeCommLoad;
use airshed_machine::{Machine, MachineProfile, NodeClocks, PlanStep};
use proptest::prelude::*;

fn load_strategy() -> impl Strategy<Value = NodeCommLoad> {
    (
        0usize..100,
        0usize..100,
        0usize..1_000_000,
        0usize..1_000_000,
        0usize..1_000_000,
    )
        .prop_map(|(ms, mr, bs, br, bc)| NodeCommLoad {
            msgs_sent: ms,
            msgs_recv: mr,
            bytes_sent: bs,
            bytes_recv: br,
            bytes_copied: bc,
        })
}

/// Everything a step leaves behind on a machine, as bit patterns: node
/// clocks, the phase breakdown, the comm log and the trace events
/// (`labels` off compares trace events without their labels).
fn fingerprint(m: &Machine, labels: bool) -> Vec<String> {
    let mut out: Vec<String> = (0..m.p())
        .map(|n| format!("clock {n} {:x}", m.clocks.time(n).to_bits()))
        .collect();
    for cat in PhaseCategory::ALL {
        out.push(format!("{cat:?} {:x}", m.breakdown.get(cat).to_bits()));
    }
    for r in m.comm_log.records() {
        out.push(format!("{} {:x} {}", r.label, r.seconds.to_bits(), r.count));
    }
    for e in m.trace.events() {
        let label = if labels { e.label } else { "" };
        out.push(format!(
            "{label} {:?} {:x} {:x}",
            e.category,
            e.start.to_bits(),
            e.end.to_bits()
        ));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The all-node step forms and the `*_group` forms over the full
    /// group share one implementation: on any per-node work and comm
    /// loads they leave bit-identical clocks, breakdowns, comm logs and
    /// traces — and so do the plan-step forms the plan executor uses
    /// (whose trace labels name the phase kind instead).
    #[test]
    fn all_node_steps_match_full_group_steps(
        p in 1usize..257,
        skewed in 0usize..257,
        ops in prop::collection::vec(
            (
                0usize..3,
                0usize..6,
                prop::collection::vec(0.0f64..1e9, 256),
                prop::collection::vec(load_strategy(), 256),
            ),
            1..12,
        ),
    ) {
        let new = || {
            let mut m = Machine::new(MachineProfile::t3d(), p);
            m.trace.enable();
            // Start from unequal clocks: a subgroup ran ahead.
            let sub: Vec<usize> = (0..skewed % p).collect();
            if !sub.is_empty() {
                m.compute_group(PhaseCategory::IoProc, &sub, &ops[0].2[..sub.len()]);
            }
            m
        };
        let (mut all, mut group, mut steps) = (new(), new(), new());
        let full: Vec<usize> = (0..p).collect();
        for (op, kind, work, loads) in &ops {
            let kind = PhaseKind::ALL[*kind];
            let (work, loads) = (&work[..p], &loads[..p]);
            match op {
                0 => {
                    let dt = all.compute(kind.category(), work);
                    prop_assert_eq!(dt.to_bits(), group.compute_group(kind.category(), &full, work).to_bits());
                    let step = PlanStep::Compute { kind, per_node: work.to_vec() };
                    prop_assert_eq!(dt.to_bits(), steps.execute_step(&step).to_bits());
                }
                1 => {
                    let dt = all.sequential(kind.category(), work[0]);
                    prop_assert_eq!(dt.to_bits(), group.sequential_group(kind.category(), &full, work[0]).to_bits());
                    let step = PlanStep::Sequential { kind, work: work[0] };
                    prop_assert_eq!(dt.to_bits(), steps.execute_step(&step).to_bits());
                }
                _ => {
                    let dt = all.communicate("D_Trans->D_Chem", loads);
                    prop_assert_eq!(dt.to_bits(), group.communicate_group("D_Trans->D_Chem", &full, loads).to_bits());
                    let step = PlanStep::Comm { label: "D_Trans->D_Chem", loads };
                    prop_assert_eq!(dt.to_bits(), steps.execute_step(&step).to_bits());
                }
            }
        }
        prop_assert_eq!(fingerprint(&all, true), fingerprint(&group, true));
        prop_assert_eq!(fingerprint(&all, false), fingerprint(&steps, false));
    }

    /// Clocks never run backwards under any sequence of operations, and a
    /// barrier equalises exactly to the max.
    #[test]
    fn clocks_are_monotone(
        p in 1usize..16,
        ops in prop::collection::vec((0usize..16, 0.0f64..10.0), 1..50),
    ) {
        let mut c = NodeClocks::new(p);
        let mut last_max = 0.0f64;
        for (node, dt) in ops {
            c.advance(node % p, dt);
            prop_assert!(c.max() >= last_max);
            last_max = c.max();
        }
        let m = c.barrier();
        prop_assert_eq!(m, last_max);
        for n in 0..p {
            prop_assert_eq!(c.time(n), m);
        }
        prop_assert_eq!(c.imbalance(), 0.0);
    }

    /// The communication cost is monotone: adding load never makes a
    /// phase cheaper, on any machine.
    #[test]
    fn comm_cost_is_monotone(base in load_strategy(), extra in load_strategy()) {
        for m in MachineProfile::paper_machines() {
            let c0 = m.comm_cost(&base);
            let mut bigger = base;
            bigger.absorb(extra);
            prop_assert!(m.comm_cost(&bigger) >= c0 - 1e-15);
        }
    }

    /// Faster machines are... faster: the T3E never loses to the Paragon
    /// on the same communication load or compute work.
    #[test]
    fn machine_ordering_is_respected(load in load_strategy(), work in 0.0f64..1e12) {
        let t3e = MachineProfile::t3e();
        let paragon = MachineProfile::paragon();
        prop_assert!(t3e.comm_cost(&load) <= paragon.comm_cost(&load) + 1e-15);
        prop_assert!(t3e.compute_seconds(work) <= paragon.compute_seconds(work) + 1e-15);
    }

    /// Phase accounting: the breakdown total equals the elapsed time for
    /// any sequence of whole-machine phases.
    #[test]
    fn accounting_adds_up(
        p in 1usize..12,
        phases in prop::collection::vec((0usize..3, prop::collection::vec(0.0f64..1e9, 12)), 1..20),
    ) {
        let mut m = Machine::new(MachineProfile::t3d(), p);
        for (kind, work) in phases {
            let cat = [PhaseCategory::IoProc, PhaseCategory::Transport, PhaseCategory::Chemistry][kind];
            m.compute(cat, &work[..p]);
        }
        prop_assert!((m.breakdown.total() - m.elapsed()).abs() < 1e-9 * m.elapsed().max(1.0));
    }

    /// Splitting the same total work over more nodes never slows a
    /// compute phase down (with balanced shares).
    #[test]
    fn balanced_scaling_is_monotone(total in 1.0f64..1e12, p1 in 1usize..64, p2 in 1usize..64) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let run = |p: usize| {
            let mut m = Machine::new(MachineProfile::t3e(), p);
            m.compute(PhaseCategory::Chemistry, &vec![total / p as f64; p]);
            m.elapsed()
        };
        prop_assert!(run(hi) <= run(lo) + 1e-12);
    }
}

//! Property tests for the pod scheduler.
//!
//! Two invariants the whole design hangs on:
//!
//! * the slice allocator never double-books a chip and never hands out a
//!   dead one, no matter how arrivals, completions and faults interleave,
//!   and its busy/live counts and preemption probes agree with a scan of
//!   the cells;
//! * preempting a job with a real checkpoint save and elastically
//!   restoring it — possibly onto a different slice shape — is
//!   bit-identical, end to end, for arbitrary campaigns.

use std::collections::BTreeMap;

use multipod_sched::{ArrivalConfig, PodScheduler, SchedConfig, SliceAllocator};
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use proptest::prelude::*;

/// One step of an interleaved campaign against the allocator.
#[derive(Clone, Debug)]
enum Op {
    /// A job arrives wanting `2^log_chips` chips.
    Arrive { log_chips: u32 },
    /// The `sel`-th live job (mod live count) completes.
    Complete { sel: usize },
    /// Chip `sel % num_chips` dies.
    Fault { sel: usize },
    /// The `sel`-th dead chip (mod dead count) is marked dead again.
    FaultAgain { sel: usize },
    /// A job that holds nothing is freed: a finished one when `sel` is
    /// even (if any), otherwise one that never arrived.
    FreeStale { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..6).prop_map(|log_chips| Op::Arrive { log_chips }),
        (0usize..64).prop_map(|sel| Op::Complete { sel }),
        (0usize..256).prop_map(|sel| Op::Fault { sel }),
        (0usize..64).prop_map(|sel| Op::FaultAgain { sel }),
        (0usize..64).prop_map(|sel| Op::FreeStale { sel }),
    ]
}

/// Chips a full scan of the cells finds owned by `job`.
fn scanned_chips(alloc: &SliceAllocator, job: u64) -> u32 {
    (0..alloc.x_len() * alloc.y_len())
        .filter(|&c| alloc.owner(ChipId(c)) == Some(job))
        .count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of arrivals, completions and chip faults,
    /// every allocated slice covers only chips the allocator still
    /// considers owned by that job, no chip is owned by two jobs, and no
    /// allocation ever lands on a dead chip.
    #[test]
    fn allocator_never_double_books_or_uses_dead_chips(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mesh = Multipod::new(MultipodConfig::mesh(16, 8, true));
        let mut alloc = SliceAllocator::new(&mesh);
        let mut next_job = 0u64;
        // job -> chips of its slice
        let mut live: BTreeMap<u64, Vec<ChipId>> = BTreeMap::new();
        let mut dead: Vec<ChipId> = Vec::new();
        // Jobs that held a slice and gave it back.
        let mut gone: Vec<u64> = Vec::new();
        let num_chips = 16 * 8;

        for op in ops {
            match op {
                Op::Arrive { log_chips } => {
                    let chips = 1u32 << log_chips;
                    let job = next_job;
                    next_job += 1;
                    if let Some(slice) = alloc.allocate(job, chips).unwrap() {
                        prop_assert_eq!(slice.chips(), chips);
                        let owned = alloc.slice_chips(&slice);
                        for &c in &owned {
                            // Never a dead chip.
                            prop_assert!(!dead.contains(&c),
                                "job {} allocated dead chip {:?}", job, c);
                            // Never a chip some live job already holds.
                            for (other, theirs) in &live {
                                prop_assert!(!theirs.contains(&c),
                                    "chip {:?} double-booked by {} and {}", c, other, job);
                            }
                            prop_assert_eq!(alloc.owner(c), Some(job));
                        }
                        live.insert(job, owned);
                    }
                }
                Op::Complete { sel } => {
                    if live.is_empty() { continue; }
                    let job = *live.keys().nth(sel % live.len()).unwrap();
                    let owned = live.remove(&job).unwrap();
                    gone.push(job);
                    let released = alloc.free(job);
                    // Every non-dead chip of the slice comes back.
                    let expect = owned.iter().filter(|c| !dead.contains(c)).count() as u32;
                    prop_assert_eq!(released, expect);
                    for c in owned {
                        if !dead.contains(&c) {
                            prop_assert_eq!(alloc.owner(c), None);
                        }
                    }
                }
                Op::Fault { sel } => {
                    let chip = ChipId((sel % num_chips) as u32);
                    if dead.contains(&chip) { continue; }
                    let victim = alloc.mark_dead(chip);
                    dead.push(chip);
                    prop_assert!(alloc.is_dead(chip));
                    // The reported victim matches the model, and the
                    // killed job's remaining chips free up.
                    let expected = live.iter()
                        .find(|(_, chips)| chips.contains(&chip))
                        .map(|(j, _)| *j);
                    prop_assert_eq!(victim, expected);
                    if let Some(job) = victim {
                        live.remove(&job);
                        gone.push(job);
                        alloc.free(job);
                    }
                }
                Op::FaultAgain { sel } => {
                    if dead.is_empty() { continue; }
                    let chip = dead[sel % dead.len()];
                    // A dead chip has no occupant, and killing it again
                    // moves no count (checked below).
                    let scanned = alloc.owner(chip);
                    prop_assert_eq!(alloc.mark_dead(chip), scanned);
                    prop_assert_eq!(scanned, None);
                    prop_assert!(alloc.is_dead(chip));
                }
                Op::FreeStale { sel } => {
                    let job = if sel % 2 == 0 && !gone.is_empty() {
                        gone[sel / 2 % gone.len()]
                    } else {
                        next_job + sel as u64
                    };
                    let scanned = scanned_chips(&alloc, job);
                    prop_assert_eq!(scanned, 0);
                    prop_assert_eq!(alloc.free(job), scanned);
                }
            }
            // Global accounting stays consistent.
            let owned_live: usize = live.values()
                .map(|chips| chips.iter().filter(|c| !dead.contains(c)).count())
                .sum();
            prop_assert_eq!(alloc.busy_chips() as usize, owned_live);
            prop_assert_eq!(alloc.live_chips() as usize, num_chips - dead.len());
        }
    }

    /// A preemption probe on a blocked request names the same victim
    /// prefix as freeing the victims one by one on a copy of the
    /// allocator and retrying, and leaves the allocator untouched.
    #[test]
    fn victims_needed_matches_a_trial_on_a_copy(
        sizes in proptest::collection::vec(1u32..6, 1..40),
        faults in proptest::collection::vec(0u32..128, 0..6),
        completions in proptest::collection::vec(0usize..64, 0..10),
        log_request in 1u32..8,
        rotate in 0usize..64,
    ) {
        let mesh = Multipod::new(MultipodConfig::mesh(16, 8, true));
        let mut alloc = SliceAllocator::new(&mesh);
        let mut jobs: Vec<u64> = Vec::new();
        for (job, &log_chips) in sizes.iter().enumerate() {
            if alloc.allocate(job as u64, 1 << log_chips).unwrap().is_some() {
                jobs.push(job as u64);
            }
        }
        for sel in completions {
            if jobs.is_empty() { break; }
            let job = jobs.remove(sel % jobs.len());
            alloc.free(job);
        }
        for chip in faults {
            if let Some(job) = alloc.mark_dead(ChipId(chip)) {
                jobs.retain(|&j| j != job);
                alloc.free(job);
            }
        }
        let request = 1u32 << log_request;
        let probe = u64::MAX;
        prop_assume!(!alloc.would_fit(probe, request).unwrap());
        if !jobs.is_empty() {
            let r = rotate % jobs.len();
            jobs.rotate_left(r);
        }

        let mut trial = alloc.clone();
        let mut expected = None;
        for (k, &v) in jobs.iter().enumerate() {
            trial.free(v);
            if trial.would_fit(probe, request).unwrap() {
                expected = Some(k + 1);
                break;
            }
        }
        let owners = |a: &SliceAllocator| -> Vec<Option<u64>> {
            (0..16 * 8).map(|c| a.owner(ChipId(c))).collect()
        };
        let before = owners(&alloc);
        let (busy, live) = (alloc.busy_chips(), alloc.live_chips());
        prop_assert_eq!(alloc.victims_needed(probe, request, &jobs).unwrap(), expected);
        prop_assert_eq!(owners(&alloc), before);
        prop_assert_eq!((alloc.busy_chips(), alloc.live_chips()), (busy, live));
    }

    /// Whole campaigns — with preemption-heavy priority mixes — restore
    /// every preempted job bit-identically and deterministically: the
    /// same seed reproduces the exact report, and every elastic restore
    /// matches its save byte for byte (`restores_bit_identical`).
    #[test]
    fn preempt_restore_is_bit_identical_and_deterministic(
        seed in 0u64..1_000,
        jobs in 20u32..60,
    ) {
        let config = SchedConfig {
            mesh: MultipodConfig::mesh(32, 32, true),
            arrivals: ArrivalConfig {
                jobs,
                seed,
                // Heavy overload so big jobs block and preempt.
                mean_interarrival_seconds: 0.002,
                tenants: 4,
            },
            services: Vec::new(),
            state_elems: 256,
            lr: 0.05,
        };
        let run = || {
            let mut sched = PodScheduler::new(config.clone());
            sched.run().unwrap()
        };
        let a = run();
        prop_assert!(a.restores_bit_identical);
        prop_assert_eq!(a.completed, u64::from(jobs));
        // Preemption overhead is exactly the checkpoint traffic: the sum
        // over events never exceeds total save+restore time.
        prop_assert!(
            a.preemption_overhead.mean * a.preemption_overhead.count as f64
                <= a.save_seconds + a.restore_seconds + 1e-9
        );
        let b = run();
        prop_assert_eq!(a, b);
    }
}

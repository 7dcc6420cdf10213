//! Pure ring-collective schedules.
//!
//! A [`Schedule`] is the communication pattern of a ring collective,
//! independent of payload contents. The numeric executor ([`crate::ring`])
//! moves real tensor chunks along it; the α–β layer ([`crate::timing`])
//! charges bytes for the same moves. Keeping the pattern in one place
//! guarantees the two layers model the same algorithm.

use serde::{Deserialize, Serialize};

use crate::ring::Direction;

/// One chunk transfer between ring members within a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChunkMove {
    /// Sending member index.
    pub from: usize,
    /// Receiving member index.
    pub to: usize,
    /// Which of the `n` payload chunks moves.
    pub chunk: usize,
    /// `true` when the receiver accumulates (reduce-scatter) rather than
    /// stores (all-gather).
    pub reduce: bool,
}

/// The full step-by-step pattern of a ring collective over `n` members.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schedule {
    n: usize,
    direction: Direction,
    steps: Vec<Vec<ChunkMove>>,
    reduce: bool,
}

impl Schedule {
    /// The classic `n-1`-step ring reduce-scatter.
    ///
    /// After execution, member `i` owns the fully reduced chunk
    /// [`Schedule::owned_chunk`]`(i)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn reduce_scatter(n: usize, direction: Direction) -> Schedule {
        assert!(n > 0, "ring must have members");
        let steps = (0..n.saturating_sub(1))
            .map(|s| {
                (0..n)
                    .map(|i| ChunkMove {
                        from: i,
                        to: Self::next(i, n, direction),
                        chunk: Self::rs_chunk(i, s, n, direction),
                        reduce: true,
                    })
                    .collect()
            })
            .collect();
        Schedule {
            n,
            direction,
            steps,
            reduce: true,
        }
    }

    /// The `n-1`-step ring all-gather. Member `i` is expected to start with
    /// chunk [`Schedule::owned_chunk`]`(i)` (i.e. the reduce-scatter
    /// output), and every member ends with all chunks.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn all_gather(n: usize, direction: Direction) -> Schedule {
        assert!(n > 0, "ring must have members");
        let steps = (0..n.saturating_sub(1))
            .map(|s| {
                (0..n)
                    .map(|i| ChunkMove {
                        from: i,
                        to: Self::next(i, n, direction),
                        chunk: Self::ag_chunk(i, s, n, direction),
                        reduce: false,
                    })
                    .collect()
            })
            .collect();
        Schedule {
            n,
            direction,
            steps,
            reduce: false,
        }
    }

    /// Ring size.
    pub fn num_members(&self) -> usize {
        self.n
    }

    /// Steps, outermost first. All moves within a step are concurrent.
    pub fn steps(&self) -> &[Vec<ChunkMove>] {
        &self.steps
    }

    /// Travel direction.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Name of the phase span a ring executing this schedule emits.
    pub(crate) fn span_name(&self) -> &'static str {
        if self.reduce {
            "reduce-scatter"
        } else {
            "all-gather"
        }
    }

    /// The chunk member `i` owns after a reduce-scatter (equivalently, must
    /// hold before an all-gather).
    pub fn owned_chunk(&self, member: usize) -> usize {
        Self::owned_chunk_of(self.n, self.direction, member)
    }

    /// [`Schedule::owned_chunk`] of an `n`-member schedule travelling
    /// `direction`, without building the schedule.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn owned_chunk_of(n: usize, direction: Direction, member: usize) -> usize {
        match direction {
            Direction::Forward => (member + 1) % n,
            Direction::Backward => (member + n - 1) % n,
        }
    }

    fn next(i: usize, n: usize, dir: Direction) -> usize {
        match dir {
            Direction::Forward => (i + 1) % n,
            Direction::Backward => (i + n - 1) % n,
        }
    }

    fn rs_chunk(i: usize, s: usize, n: usize, dir: Direction) -> usize {
        match dir {
            Direction::Forward => (i + n - s % n) % n,
            Direction::Backward => (i + s) % n,
        }
    }

    fn ag_chunk(i: usize, s: usize, n: usize, dir: Direction) -> usize {
        match dir {
            Direction::Forward => (i + 1 + n - s % n) % n,
            Direction::Backward => (i + n - 1 + s) % n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a reduce-scatter schedule symbolically: each member starts
    /// with contribution sets {i} per chunk; at the end the owned chunk
    /// must contain all n contributions.
    fn verify_rs(n: usize, dir: Direction) {
        let sched = Schedule::reduce_scatter(n, dir);
        // contrib[member][chunk] = set of source members already summed in.
        let mut contrib: Vec<Vec<Vec<bool>>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|_| {
                        let mut v = vec![false; n];
                        v[i] = true;
                        v
                    })
                    .collect()
            })
            .collect();
        for step in sched.steps() {
            let snapshot = contrib.clone();
            for mv in step {
                assert!(mv.reduce);
                let incoming = snapshot[mv.from][mv.chunk].clone();
                for (dst, src) in contrib[mv.to][mv.chunk].iter_mut().zip(&incoming) {
                    *dst = *dst || *src;
                }
            }
        }
        for (i, member) in contrib.iter().enumerate() {
            let owned = sched.owned_chunk(i);
            assert!(
                member[owned].iter().all(|&b| b),
                "member {i} chunk {owned} incomplete for n={n} dir={dir:?}"
            );
        }
    }

    /// Replays an all-gather schedule symbolically: each member starts
    /// holding only its owned chunk; at the end it must hold all chunks.
    fn verify_ag(n: usize, dir: Direction) {
        let sched = Schedule::all_gather(n, dir);
        let mut has: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                let mut v = vec![false; n];
                v[sched.owned_chunk(i)] = true;
                v
            })
            .collect();
        for step in sched.steps() {
            let snapshot = has.clone();
            for mv in step {
                assert!(!mv.reduce);
                assert!(
                    snapshot[mv.from][mv.chunk],
                    "member {} sends chunk {} it does not hold (n={n}, {dir:?})",
                    mv.from, mv.chunk
                );
                has[mv.to][mv.chunk] = true;
            }
        }
        for (i, v) in has.iter().enumerate() {
            assert!(v.iter().all(|&b| b), "member {i} missing chunks (n={n})");
        }
    }

    #[test]
    fn reduce_scatter_completes_for_many_sizes() {
        for n in 1..=9 {
            verify_rs(n, Direction::Forward);
            verify_rs(n, Direction::Backward);
        }
        verify_rs(32, Direction::Forward);
        verify_rs(32, Direction::Backward);
    }

    #[test]
    fn all_gather_completes_for_many_sizes() {
        for n in 1..=9 {
            verify_ag(n, Direction::Forward);
            verify_ag(n, Direction::Backward);
        }
        verify_ag(32, Direction::Forward);
    }

    #[test]
    fn step_counts_are_n_minus_one() {
        assert_eq!(
            Schedule::reduce_scatter(8, Direction::Forward)
                .steps()
                .len(),
            7
        );
        assert_eq!(
            Schedule::all_gather(8, Direction::Backward).steps().len(),
            7
        );
        assert_eq!(
            Schedule::reduce_scatter(1, Direction::Forward)
                .steps()
                .len(),
            0
        );
    }

    #[test]
    fn owned_chunks_are_a_permutation() {
        for dir in [Direction::Forward, Direction::Backward] {
            let sched = Schedule::reduce_scatter(8, dir);
            let mut owned: Vec<usize> = (0..8).map(|i| sched.owned_chunk(i)).collect();
            owned.sort_unstable();
            assert_eq!(owned, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn owned_chunk_of_matches_the_built_schedules() {
        for n in 1..=130 {
            for dir in [Direction::Forward, Direction::Backward] {
                let rs = Schedule::reduce_scatter(n, dir);
                let ag = Schedule::all_gather(n, dir);
                for i in 0..n {
                    let owned = Schedule::owned_chunk_of(n, dir, i);
                    assert_eq!(owned, rs.owned_chunk(i), "n={n} {dir:?} member {i}");
                    assert_eq!(owned, ag.owned_chunk(i), "n={n} {dir:?} member {i}");
                }
                if n < 2 {
                    continue;
                }
                // The last reduce-scatter step completes the owned chunk at
                // its receiver; the first all-gather step sends it onward.
                for mv in rs.steps().last().unwrap() {
                    assert_eq!(mv.chunk, Schedule::owned_chunk_of(n, dir, mv.to));
                }
                for mv in &ag.steps()[0] {
                    assert_eq!(mv.chunk, Schedule::owned_chunk_of(n, dir, mv.from));
                }
            }
        }
    }

    #[test]
    fn forward_and_backward_use_disjoint_directed_edges() {
        let f = Schedule::reduce_scatter(6, Direction::Forward);
        let b = Schedule::reduce_scatter(6, Direction::Backward);
        let fe: Vec<(usize, usize)> = f.steps()[0].iter().map(|m| (m.from, m.to)).collect();
        for mv in &b.steps()[0] {
            assert!(!fe.contains(&(mv.from, mv.to)));
        }
    }
}

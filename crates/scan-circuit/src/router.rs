//! A packet-level butterfly router — the *other side* of Table 2.
//!
//! The paper compares the scan tree against "references to a shared
//! memory", i.e. messages through a multistage network. To make the
//! comparison measured-vs-measured (not measured-vs-formula), this
//! module simulates an `n`-input butterfly: `lg n` stages of 2×2
//! switches, one message per output port per cycle, FIFO queues at
//! switch inputs, destination-bit routing. The delivery time of a full
//! permutation — every processor referencing memory at once, the
//! P-RAM's one "unit-time" step — is measured in switch cycles and
//! converted to bit cycles with the wormhole rule (a `b`-bit message
//! pipelines, so the tail arrives `b − 1` bit cycles after the head).
//!
//! The idealized probabilistic `O(lg n)` claim of the paper's §1 shows
//! up directly: random permutations deliver in near-`lg n` switch
//! cycles, while adversarial patterns (bit reversal) congest.

/// One in-flight message: destination output and an identifying
/// payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Packet {
    dest: usize,
    src: usize,
}

/// Result of routing one batch of messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteRun {
    /// Switch cycles until the last head flit arrived.
    pub switch_cycles: u64,
    /// The source that each output received (`usize::MAX` = none).
    pub received_from: Vec<usize>,
    /// Largest queue occupancy observed anywhere (congestion measure).
    pub max_queue: usize,
}

impl RouteRun {
    /// Wormhole bit-cycle count for `b`-bit messages: head latency in
    /// switch cycles (each one bit time on single-bit links per hop)
    /// plus the pipelined tail.
    pub fn bit_cycles(&self, message_bits: u32) -> u64 {
        self.switch_cycles + message_bits as u64 - 1
    }
}

/// An `n`-input butterfly network (`n` a power of two) of 2×2 switches.
#[derive(Debug, Clone)]
pub struct ButterflyRouter {
    n: usize,
    stages: u32,
}

impl ButterflyRouter {
    /// Build a router over `n` ports.
    ///
    /// # Panics
    /// If `n` is not a power of two or is < 2.
    pub fn new(n: usize) -> Self {
        assert!(n.is_power_of_two() && n >= 2);
        ButterflyRouter {
            n,
            stages: n.trailing_zeros(),
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.n
    }

    /// Number of switch stages (`lg n`).
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Total 2×2 switches (`(n/2)·lg n` — Table 2's `O(n lg n)`
    /// hardware).
    pub fn switch_count(&self) -> u64 {
        (self.n as u64 / 2) * self.stages as u64
    }

    /// Route one message set: `dests[i]` is input `i`'s destination
    /// (`usize::MAX` = no message). Destinations need not be unique —
    /// colliding messages serialize in the queues, exactly the hot-spot
    /// behaviour multistage networks suffer.
    ///
    /// # Panics
    /// If a destination is out of range.
    pub fn route(&self, dests: &[usize]) -> RouteRun {
        assert!(dests.len() <= self.n, "too many messages");
        for &d in dests {
            assert!(d == usize::MAX || d < self.n, "destination out of range");
        }
        let n = self.n;
        let l = self.stages as usize;
        // queues[s][i]: FIFO feeding stage s at row i; stage l = output.
        let mut queues: Vec<Vec<std::collections::VecDeque<Packet>>> =
            vec![vec![std::collections::VecDeque::new(); n]; l + 1];
        let mut live = 0usize;
        for (i, &d) in dests.iter().enumerate() {
            if d != usize::MAX {
                queues[0][i].push_back(Packet { dest: d, src: i });
                live += 1;
            }
        }
        let mut received_from = vec![usize::MAX; n];
        let mut cycles = 0u64;
        let mut max_queue = 0usize;
        let mut rr = false; // round-robin tie-break between switch inputs
        while live > 0 {
            cycles += 1;
            assert!(
                cycles <= (self.n as u64) * (l as u64 + 2) * 4 + 64,
                "router livelocked"
            );
            // Move stage by stage, later stages first so a message
            // advances at most one hop per cycle.
            for s in (0..l).rev() {
                // Butterfly wiring: stage s switches pair rows that
                // differ in bit (l-1-s). Each output row accepts one
                // packet per cycle.
                let bit = l - 1 - s;
                let mut accepted: Vec<bool> = vec![false; n];
                // Alternate which input gets priority for fairness.
                let order: Vec<usize> = if rr {
                    (0..n).rev().collect()
                } else {
                    (0..n).collect()
                };
                for &row in &order {
                    if let Some(&pkt) = queues[s][row].front() {
                        // The switch sends toward the row whose bit
                        // `bit` matches the destination's bit.
                        let out_row = if (pkt.dest >> bit) & 1 == 1 {
                            row | (1 << bit)
                        } else {
                            row & !(1 << bit)
                        };
                        if !accepted[out_row] {
                            accepted[out_row] = true;
                            queues[s][row].pop_front();
                            if s + 1 == l {
                                received_from[out_row] = pkt.src;
                                live -= 1;
                            } else {
                                queues[s + 1][out_row].push_back(pkt);
                            }
                        }
                    }
                }
            }
            rr = !rr;
            for stage in &queues {
                for q in stage {
                    max_queue = max_queue.max(q.len());
                }
            }
        }
        RouteRun {
            switch_cycles: cycles,
            received_from,
            max_queue,
        }
    }

    /// Health probe for supervised executors: route the identity
    /// permutation and verify that every output received its own row's
    /// packet in exactly `stages` switch cycles with no queueing. The
    /// identity pattern is contention-free on a butterfly, so any
    /// deviation means the switch fabric (or its simulation) is
    /// misrouting or stalling.
    pub fn self_check(&self) -> bool {
        let dests: Vec<usize> = (0..self.n).collect();
        let run = self.route(&dests);
        run.switch_cycles == self.stages as u64
            && run.max_queue <= 1
            && run
                .received_from
                .iter()
                .enumerate()
                .all(|(out, &src)| src == out)
    }

    /// Bit cycles for one full memory-reference round of `m`-bit values
    /// under the routing pattern `dests` — request only (a write); a
    /// read doubles it (request + reply).
    pub fn reference_bit_cycles(&self, dests: &[usize], m_bits: u32) -> u64 {
        let run = self.route(dests);
        // Message = lg n address bits + payload.
        run.bit_cycles(self.stages + m_bits)
    }
}

/// The bit-reversal permutation — a classic butterfly adversary.
pub fn bit_reversal_permutation(n: usize) -> Vec<usize> {
    assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| (i as u64).reverse_bits() as usize >> (64 - bits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn random_permutation(n: usize, seed: u64) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        let mut x = seed | 1;
        for i in (1..n).rev() {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (x >> 33) as usize % (i + 1);
            p.swap(i, j);
        }
        p
    }

    #[test]
    fn identity_delivers_in_lg_n_cycles() {
        let r = ButterflyRouter::new(64);
        let dests: Vec<usize> = (0..64).collect();
        let run = r.route(&dests);
        assert_eq!(run.switch_cycles, 6, "one hop per stage, no contention");
        assert_eq!(run.max_queue, 1);
        for (out, &src) in run.received_from.iter().enumerate() {
            assert_eq!(src, out);
        }
    }

    #[test]
    fn every_permutation_delivers_correctly() {
        let r = ButterflyRouter::new(128);
        for seed in 0..5 {
            let p = random_permutation(128, seed);
            let run = r.route(&p);
            for (src, &dst) in p.iter().enumerate() {
                assert_eq!(run.received_from[dst], src, "seed {seed}");
            }
        }
    }

    #[test]
    fn random_permutations_deliver_near_lg_n() {
        let r = ButterflyRouter::new(1024);
        let mut worst = 0;
        for seed in 0..5 {
            let run = r.route(&random_permutation(1024, seed + 10));
            worst = worst.max(run.switch_cycles);
        }
        // The probabilistic O(lg n) claim: small constant × lg n.
        assert!(worst <= 8 * 10, "random routing took {worst} cycles");
    }

    #[test]
    fn bit_reversal_congests() {
        let n = 256;
        let r = ButterflyRouter::new(n);
        let adversarial = r.route(&bit_reversal_permutation(n));
        let random = r.route(&random_permutation(n, 3));
        assert!(
            2 * adversarial.switch_cycles > 3 * random.switch_cycles,
            "bit reversal ({}) should congest vs random ({})",
            adversarial.switch_cycles,
            random.switch_cycles
        );
        assert!(adversarial.max_queue > random.max_queue);
    }

    #[test]
    fn hotspot_serializes() {
        // All messages to one output: n cycles minimum.
        let n = 64;
        let r = ButterflyRouter::new(n);
        let run = r.route(&vec![5usize; n]);
        assert!(run.switch_cycles >= n as u64);
        assert_eq!(run.received_from[5], run.received_from[5]); // delivered
    }

    #[test]
    fn partial_traffic_and_empty() {
        let r = ButterflyRouter::new(8);
        let mut dests = vec![usize::MAX; 8];
        dests[3] = 6;
        let run = r.route(&dests);
        assert_eq!(run.received_from[6], 3);
        assert_eq!(run.switch_cycles, 3);
        let idle = r.route(&[usize::MAX; 8]);
        assert_eq!(idle.switch_cycles, 0);
    }

    #[test]
    fn self_check_passes_on_a_healthy_router() {
        for n in [2, 8, 64, 256] {
            assert!(ButterflyRouter::new(n).self_check(), "n={n}");
        }
    }

    #[test]
    fn wormhole_bit_cycles() {
        let r = ButterflyRouter::new(64);
        let dests: Vec<usize> = (0..64).collect();
        // 6 head cycles + (6 addr + 32 data − 1) pipelined tail.
        assert_eq!(r.reference_bit_cycles(&dests, 32), 6 + 6 + 32 - 1);
    }

    #[test]
    fn hardware_inventory() {
        let r = ButterflyRouter::new(1 << 16);
        assert_eq!(r.switch_count(), 32768 * 16);
        assert_eq!(r.stages(), 16);
    }
}

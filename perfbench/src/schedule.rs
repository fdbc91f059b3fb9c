//! Seeded inputs. Everything that varies between runs of one workload comes
//! from the command-line seed through this module; the program under test
//! only ever sees the generated requests.

use std::time::Duration;

/// SplitMix64: a tiny, well-mixed generator, enough for schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i));
    }
    order
}

/// One generated serve request.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Offset of the request's due time from the start of the phase.
    pub due: Duration,
    /// Index into the serve family list.
    pub family: usize,
    /// Trials requested.
    pub trials: usize,
}

/// Fewest and most trials one serve request asks for.
pub const TRIALS_PER_REQUEST: (usize, usize) = (1, 8);

/// An open-loop schedule: Poisson arrivals at `rate` requests per second
/// over `length`, each for a uniformly drawn family and trial count.
pub fn open_loop(rng: &mut Rng, rate: f64, length: Duration, families: usize) -> Vec<Arrival> {
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    loop {
        // Exponential inter-arrival gap; `1 - u` keeps the log finite.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= length.as_secs_f64() {
            return arrivals;
        }
        arrivals.push(Arrival {
            due: Duration::from_secs_f64(t),
            family: rng.range(0, families - 1),
            trials: rng.range(TRIALS_PER_REQUEST.0, TRIALS_PER_REQUEST.1),
        });
    }
}

/// A burst: `count` requests all due at once.
pub fn burst(rng: &mut Rng, count: usize, families: usize) -> Vec<Arrival> {
    (0..count)
        .map(|_| Arrival {
            due: Duration::ZERO,
            family: rng.range(0, families - 1),
            trials: rng.range(TRIALS_PER_REQUEST.0, TRIALS_PER_REQUEST.1),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<Arrival> {
        open_loop(&mut Rng::new(seed), 400.0, Duration::from_secs(2), 4)
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        assert_eq!(burst(&mut a, 50, 4), burst(&mut b, 50, 4));
        assert_eq!(permutation(12, &mut a), permutation(12, &mut b));
    }

    #[test]
    fn schedule_has_the_requested_rate_and_ranges() {
        let s = schedule(1);
        // 800 expected arrivals; a Poisson count stays well within ±15%.
        assert!((680..=920).contains(&s.len()), "{} arrivals", s.len());
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s
            .iter()
            .all(|a| a.family < 4 && (1..=8).contains(&a.trials)));
        for f in 0..4 {
            assert!(s.iter().any(|a| a.family == f), "family {f} never drawn");
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = permutation(12, &mut Rng::new(3));
        p.sort_unstable();
        assert_eq!(p, (0..12).collect::<Vec<_>>());
    }
}

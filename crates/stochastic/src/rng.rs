//! Counter-based per-replicate random streams.
//!
//! The GPU codes this crate models (cuTauLeaping and kin) give every
//! device thread its own *counter-based* RNG: the `i`-th variate of a
//! stream is a pure function `mix(key, i)` of a per-thread key and the
//! draw counter, so streams need no shared state, no warm-up, and no
//! seeding order. [`CounterRng`] is the host equivalent: a splitmix64
//! finalizer over a keyed counter (Steele–Lea–Flood's SplitMix64, the
//! same generator the vendored `StdRng` uses for seed expansion).
//!
//! # Stream layout
//!
//! A replicate's key is derived by chaining the finalizer over the triple
//! `(campaign seed, member index, replicate index)`:
//!
//! ```text
//! k₀  = mix(seed ⊕ GAMMA)
//! k₁  = mix(k₀ + member·PHI + 1)
//! key = mix(k₁ + replicate·PHI + 2)
//! draw j = mix(key + (j+1)·PHI)        (j = 0, 1, …)
//! ```
//!
//! Because the key depends only on that triple, a replicate's entire
//! variate stream — and therefore its trajectory — is bitwise identical
//! no matter which lane of which lane-group on which worker thread runs
//! it. Lane width, packing order, thread count, and shard decomposition
//! all become pure scheduling decisions.
//!
//! # Migration note
//!
//! Before this scheme, `StochasticBatch` seeded replicate `i` with
//! `StdRng::seed_from_u64(seed + i)`. Old seeds therefore reproduce
//! *different* ensembles under the counter-based layout; any recorded
//! expectations tied to pre-migration seeds must be re-baselined once.

use rand::RngCore;

/// The golden-ratio increment (2⁶⁴/φ) driving the splitmix64 counter.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// Domain-separation constant for the seed absorption (√2 − 1 in fixed
/// point, the SHA-512 initial-value constant).
const GAMMA: u64 = 0x6A09_E667_F3BC_C909;

/// The splitmix64 finalizer: a bijective avalanche mix.
#[inline]
fn mix(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based RNG stream: draw `j` is `mix(key + (j+1)·PHI)`.
///
/// # Example
///
/// ```
/// use paraspace_stochastic::CounterRng;
/// use rand::Rng;
///
/// let mut a = CounterRng::replicate_stream(42, 0, 7);
/// let mut b = CounterRng::replicate_stream(42, 0, 7);
/// assert_eq!(a.gen::<f64>(), b.gen::<f64>(), "same triple ⇒ same stream");
/// let mut c = CounterRng::replicate_stream(42, 0, 8);
/// assert_ne!(a.gen::<u64>(), c.gen::<u64>(), "replicates decorrelate");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    counter: u64,
}

impl CounterRng {
    /// A stream from a raw key (counter starts at zero).
    fn from_key(key: u64) -> Self {
        CounterRng { key, counter: 0 }
    }

    /// The stream of one ensemble replicate, keyed by the campaign seed,
    /// the campaign member (parameterization) index, and the replicate
    /// index within the member's ensemble.
    pub fn replicate_stream(seed: u64, member: u64, replicate: u64) -> Self {
        let k0 = mix(seed ^ GAMMA);
        let k1 = mix(k0.wrapping_add(member.wrapping_mul(PHI)).wrapping_add(1));
        let key = mix(k1.wrapping_add(replicate.wrapping_mul(PHI)).wrapping_add(2));
        CounterRng::from_key(key)
    }

    /// The stream's key (identifies it independently of position).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Draws consumed so far.
    pub fn position(&self) -> u64 {
        self.counter
    }
}

impl RngCore for CounterRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        mix(self.key.wrapping_add(self.counter.wrapping_mul(PHI)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_pure_functions_of_the_triple() {
        let mut a = CounterRng::replicate_stream(3, 1, 5);
        let mut b = CounterRng::replicate_stream(3, 1, 5);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn any_triple_coordinate_separates_streams() {
        let base: Vec<u64> =
            (0..8).map(|_| CounterRng::replicate_stream(3, 1, 5).next_u64()).collect();
        let _ = base;
        let first = |s, m, r| CounterRng::replicate_stream(s, m, r).next_u64();
        let a = first(3, 1, 5);
        assert_ne!(a, first(4, 1, 5), "seed separates");
        assert_ne!(a, first(3, 2, 5), "member separates");
        assert_ne!(a, first(3, 1, 6), "replicate separates");
        // Swapping member and replicate must not collide either.
        assert_ne!(first(3, 5, 1), first(3, 1, 5));
    }

    #[test]
    fn draws_are_random_access_in_the_counter() {
        // Draw j is a pure function of (key, j): skipping ahead by
        // re-deriving the stream and discarding reproduces the suffix.
        let mut full = CounterRng::replicate_stream(9, 0, 0);
        let prefix: Vec<u64> = (0..10).map(|_| full.next_u64()).collect();
        let _ = prefix;
        let tail: Vec<u64> = (0..5).map(|_| full.next_u64()).collect();
        let mut skipped = CounterRng::replicate_stream(9, 0, 0);
        for _ in 0..10 {
            skipped.next_u64();
        }
        assert_eq!(skipped.position(), 10);
        let tail2: Vec<u64> = (0..5).map(|_| skipped.next_u64()).collect();
        assert_eq!(tail, tail2);
    }

    #[test]
    fn unit_doubles_are_uniform_enough() {
        let mut rng = CounterRng::replicate_stream(17, 0, 3);
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0 / 12.0).abs() < 0.005, "var {var}");
        assert!(xs.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn adjacent_replicate_streams_are_uncorrelated() {
        // Correlation between replicate r and r+1 over 4096 draws.
        let n = 4096;
        let mut a = CounterRng::replicate_stream(1, 0, 100);
        let mut b = CounterRng::replicate_stream(1, 0, 101);
        let xs: Vec<f64> = (0..n).map(|_| a.gen::<f64>() - 0.5).collect();
        let ys: Vec<f64> = (0..n).map(|_| b.gen::<f64>() - 0.5).collect();
        let dot: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
        let corr = dot / n as f64 / (1.0 / 12.0);
        assert!(corr.abs() < 0.05, "correlation {corr}");
    }
}

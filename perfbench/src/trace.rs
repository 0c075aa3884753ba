//! Seeded trace generation and value stamping.
//!
//! Everything a run sends is a pure function of `--seed`: the per-client
//! operation sequences (mix and key choice) are generated before the timed
//! window, and so are the value bodies. A value is one of a client's
//! pre-generated bodies with a 32-byte stamp written over its head:
//!
//! ```text
//! [0..8)   key index      u64 LE
//! [8..16)  writer         u64 LE  (client index, or LOADER)
//! [16..24) sequence       u64 LE  (writer's put counter, or 0 for the load)
//! [24..32) checksum       u64 LE  over bytes [0..24) and [32..len)
//! ```
//!
//! so the correctness check can tell from any value read back which put
//! wrote it and whether its bytes survived intact.

/// Writer id used for the values of the load phase.
pub const LOADER: u64 = u64::MAX;

/// Length of the stamp at the head of every value.
pub const STAMP_LEN: usize = 32;

/// Bodies pre-generated per writer; a put uses body `seq % BODY_POOL`.
const BODY_POOL: usize = 16;

/// SplitMix64: small, fast, and good enough to drive a benchmark trace.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a stream label, independent of the
    /// streams for other labels.
    pub fn stream(seed: u64, label: u64) -> Self {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// How a workload picks keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyChoice {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with the given exponent. As in YCSB's scrambled zipfian,
    /// popularity ranks are scattered over the key space by a fixed
    /// permutation, so hot keys do not cluster in one hash range and every
    /// seed puts the same load on each partition.
    Zipf(f64),
}

/// The YCSB zipfian generator (Gray et al.), over ranks `[0, n)`.
struct Zipf {
    n: f64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Self {
        let zeta = |k: usize| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let nf = n as f64;
        Zipf {
            n: nf,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        rank.min(self.n as usize - 1)
    }
}

/// Seeds the zipf rank-to-key permutation; fixed, not `--seed`.
const RANK_SCATTER_SEED: u64 = 0x5045_534f_5331_3800;

/// One operation of a client's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    pub put: bool,
    pub key: u32,
}

/// The shape of a workload's traffic.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub records: usize,
    pub put_fraction: f64,
    pub keys: KeyChoice,
}

/// Generates `len` operations for `client` (clients get independent
/// streams of the same distribution).
pub fn client_trace(seed: u64, client: u64, mix: &Mix, len: usize) -> Vec<TraceOp> {
    let mut rng = Rng::stream(seed, 0x7472_6163_6500 + client);
    let chooser = KeyChooser::new(mix);
    (0..len)
        .map(|_| {
            let put = rng.next_f64() < mix.put_fraction;
            TraceOp {
                put,
                key: chooser.pick(&mut rng) as u32,
            }
        })
        .collect()
}

struct KeyChooser {
    records: usize,
    zipf: Option<(Zipf, Vec<u32>)>,
}

impl KeyChooser {
    fn new(mix: &Mix) -> Self {
        let zipf = match mix.keys {
            KeyChoice::Uniform => None,
            KeyChoice::Zipf(theta) => {
                let mut perm: Vec<u32> = (0..mix.records as u32).collect();
                let mut rng = Rng::stream(RANK_SCATTER_SEED, 0x7065_726d);
                for i in (1..perm.len()).rev() {
                    perm.swap(i, rng.below(i as u64 + 1) as usize);
                }
                Some((Zipf::new(mix.records, theta), perm))
            }
        };
        KeyChooser {
            records: mix.records,
            zipf,
        }
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        match &self.zipf {
            None => rng.below(self.records as u64) as usize,
            Some((zipf, perm)) => perm[zipf.sample(rng)] as usize,
        }
    }
}

/// The key name of record `index`.
pub fn key_name(index: u32) -> String {
    format!("user{index:08}")
}

/// 64-bit checksum of a value, skipping the checksum field itself.
pub fn checksum(value: &[u8]) -> u64 {
    let mut h: u64 = 0x6A09_E667_F3BC_C908 ^ value.len() as u64;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
    };
    let (head, rest) = value.split_at(24.min(value.len()));
    let body = rest.get(8..).unwrap_or(&[]);
    for part in [head, body] {
        let mut chunks = part.chunks_exact(8);
        for c in &mut chunks {
            mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        mix(u64::from_le_bytes(tail));
    }
    h
}

/// Who wrote a value, as decoded from its stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp {
    pub key: u32,
    pub writer: u64,
    pub seq: u64,
}

/// Decodes and validates a value's stamp. `None` if the value is too short
/// or its checksum does not match its bytes.
pub fn read_stamp(value: &[u8]) -> Option<Stamp> {
    if value.len() < STAMP_LEN {
        return None;
    }
    let word = |i: usize| u64::from_le_bytes(value[i..i + 8].try_into().expect("8-byte field"));
    if word(24) != checksum(value) {
        return None;
    }
    Some(Stamp {
        key: u32::try_from(word(0)).ok()?,
        writer: word(8),
        seq: word(16),
    })
}

/// Builds the stamped values of one writer from its pre-generated bodies.
#[derive(Clone)]
pub struct Stamper {
    bodies: Vec<Vec<u8>>,
}

impl Stamper {
    pub fn new(seed: u64, writer: u64, value_size: usize) -> Self {
        assert!(value_size >= STAMP_LEN, "values must hold the stamp");
        let mut rng = Rng::stream(seed, 0x626f_6479_0000 ^ writer);
        let bodies = (0..BODY_POOL)
            .map(|_| {
                let mut b = Vec::with_capacity(value_size + 8);
                while b.len() < value_size {
                    b.extend_from_slice(&rng.next_u64().to_le_bytes());
                }
                b.truncate(value_size);
                b
            })
            .collect();
        Stamper { bodies }
    }

    /// The value `stamp` denotes: same stamp, same bytes.
    pub fn value(&self, stamp: Stamp) -> Vec<u8> {
        let mut v = self.bodies[(stamp.seq % BODY_POOL as u64) as usize].clone();
        v[0..8].copy_from_slice(&u64::from(stamp.key).to_le_bytes());
        v[8..16].copy_from_slice(&stamp.writer.to_le_bytes());
        v[16..24].copy_from_slice(&stamp.seq.to_le_bytes());
        let sum = checksum(&v);
        v[24..32].copy_from_slice(&sum.to_le_bytes());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_a_function_of_the_seed() {
        let mix = Mix {
            records: 1000,
            put_fraction: 0.5,
            keys: KeyChoice::Zipf(0.99),
        };
        assert_eq!(client_trace(7, 0, &mix, 500), client_trace(7, 0, &mix, 500));
        assert_ne!(client_trace(7, 0, &mix, 500), client_trace(8, 0, &mix, 500));
        assert_ne!(client_trace(7, 0, &mix, 500), client_trace(7, 1, &mix, 500));
    }

    #[test]
    fn mixes_have_their_shape() {
        let uniform = Mix {
            records: 100,
            put_fraction: 0.05,
            keys: KeyChoice::Uniform,
        };
        let t = client_trace(1, 0, &uniform, 20_000);
        let puts = t.iter().filter(|o| o.put).count() as f64 / t.len() as f64;
        assert!((puts - 0.05).abs() < 0.01, "put share {puts}");
        assert!(t.iter().all(|o| (o.key as usize) < 100));
        let mut counts = [0usize; 100];
        t.iter().for_each(|o| counts[o.key as usize] += 1);
        assert!(counts.iter().all(|&c| c > 100 && c < 300), "uniform spread");

        let zipf = Mix {
            keys: KeyChoice::Zipf(0.99),
            ..uniform
        };
        let t = client_trace(1, 0, &zipf, 20_000);
        let mut counts = [0usize; 100];
        t.iter().for_each(|o| counts[o.key as usize] += 1);
        counts.sort_unstable();
        assert!(counts[99] > 10 * counts[50], "zipf is skewed: {counts:?}");
    }

    #[test]
    fn stamps_round_trip_and_detect_corruption() {
        let stamper = Stamper::new(3, 1, 1024);
        let stamp = Stamp {
            key: 42,
            writer: 1,
            seq: 9,
        };
        let v = stamper.value(stamp);
        assert_eq!(v.len(), 1024);
        assert_eq!(read_stamp(&v), Some(stamp));
        assert_eq!(stamper.value(stamp), v);
        for i in [0usize, 12, 30, 500, 1023] {
            let mut bad = v.clone();
            bad[i] ^= 1;
            assert_eq!(read_stamp(&bad), None, "flip at {i}");
        }
        assert_eq!(read_stamp(&v[..16]), None);
    }
}

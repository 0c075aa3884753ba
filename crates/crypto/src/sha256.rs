//! SHA-256 implementation (FIPS 180-4).
//!
//! Used for object fingerprints (`objHash`), policy identifiers, enclave
//! measurements, HMAC and key derivation. The implementation is a direct,
//! dependency-free transcription of the standard and is validated against
//! the published test vectors in the unit tests below.
//!
//! # Midstates
//!
//! [`Sha256`] is `Clone`, and a clone is an exact snapshot of the chaining
//! state plus any buffered partial block. Code that repeatedly hashes a
//! common prefix (an HMAC pad block, an AEAD key+nonce header) absorbs the
//! prefix once, keeps the hasher as a *midstate*, and clones it per use —
//! each clone costs a 100-byte memcpy instead of re-absorbing (and for
//! block-aligned prefixes, re-compressing) the prefix. `HmacKey` and the
//! AEAD keystream are built on this; the digests produced through midstates
//! are byte-identical to hashing from scratch, which the property tests
//! assert.

/// A SHA-256 digest (32 bytes).
pub type Digest = [u8; 32];

/// Process-wide compression-function counter.
///
/// Every 64-byte compression anywhere in the process increments one relaxed
/// atomic. Tests put a hard budget on the number of SHA-256 compressions an
/// operation is allowed to spend, so digest-count regressions (hashing the
/// same bytes twice, redoing an HMAC key schedule) fail CI instead of
/// silently costing microseconds — and the cluster's `/stats/digests` gauge
/// reports the running total. One uncontended relaxed `fetch_add` per
/// 64-byte compression is noise next to the compression itself, so the
/// counter is always on.
pub mod ops {
    use std::sync::atomic::{AtomicU64, Ordering};

    static COMPRESSIONS: AtomicU64 = AtomicU64::new(0);

    pub(super) fn record() {
        COMPRESSIONS.fetch_add(1, Ordering::Relaxed);
    }

    /// Total compressions executed since process start (or the last
    /// [`reset`]).
    pub fn compressions() -> u64 {
        COMPRESSIONS.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset() {
        COMPRESSIONS.store(0, Ordering::Relaxed);
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use pesos_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest, pesos_crypto::sha256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher with the standard initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially full buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        // Compress full blocks directly from the input slice — no staging
        // copy through `self.buffer`.
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            self.compress(block.try_into().expect("chunk is 64 bytes"));
        }

        // Stash the remainder.
        let rest = blocks.remainder();
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Finalizes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);

        // Assemble the terminator, zero padding and length entirely on the
        // stack: one block if the buffered data leaves room for the 8-byte
        // length, two otherwise.
        let mut pad = [0u8; 128];
        pad[..self.buffer_len].copy_from_slice(&self.buffer[..self.buffer_len]);
        pad[self.buffer_len] = 0x80;
        let total = if self.buffer_len < 56 { 64 } else { 128 };
        pad[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(pad[..64].try_into().expect("first padding block"));
        if total == 128 {
            self.compress(pad[64..].try_into().expect("second padding block"));
        }

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        ops::record();
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Computes the SHA-256 digest of `data` in one call.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the SHA-256 digest of the concatenation of several slices.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex_encode;

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex_encode(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex_encode(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex_encode(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_encode(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 13, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn midstate_clone_matches_fresh_hash() {
        // A cloned midstate (any prefix length, block-aligned or not) must
        // continue to exactly the digest of the concatenated input, and the
        // midstate itself must stay reusable across many clones.
        let prefix: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        for prefix_len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200] {
            let mut mid = Sha256::new();
            mid.update(&prefix[..prefix_len]);
            for suffix_len in [0usize, 1, 8, 55, 64, 129] {
                let suffix = vec![0xabu8; suffix_len];
                let mut h = mid.clone();
                h.update(&suffix);
                let joined: Vec<u8> = prefix[..prefix_len]
                    .iter()
                    .chain(suffix.iter())
                    .copied()
                    .collect();
                assert_eq!(
                    h.finalize(),
                    sha256(&joined),
                    "prefix {prefix_len} suffix {suffix_len}"
                );
            }
        }
    }

    #[test]
    fn concat_matches_joined() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }
}

//! A from-scratch implementation of SHA-256 (FIPS 180-4).
//!
//! The paper instantiates its hash function `H` and the HMAC used for MAC
//! measurements with SHA-256 (§5.5). We implement the full compression
//! function here rather than pulling in a dependency, so the repository is
//! self-contained and the byte-level message sizes (32-byte digests in block
//! headers, HMAC tags, …) are exact.
//!
//! # Two kernels, one dispatch point
//!
//! The compression function exists twice. The **portable kernel** is the
//! scalar FIPS 180-4 routine: it runs on every target and is the
//! reference the tests compare against. The **hardware kernel** runs the
//! same function on the x86-64 SHA extensions (`sha256rnds2`,
//! `sha256msg1`, `sha256msg2`), about five times faster. Both
//! produce the same state for every `(state, block)` pair, so a digest is
//! identical on every host; [`compressions`] counts calls to the private
//! dispatcher `compress`, never to a kernel, so the count is too.
//!
//! The kernel is chosen per process from what the CPU reports
//! (`is_x86_feature_detected!` for `sha`, `sse2`, `ssse3`, `sse4.1`). There
//! is deliberately no switch — no environment variable, cargo feature or
//! `cfg` flag: which kernel runs is a fact about the host, not a setting,
//! and a setting would double what tests and benchmarks must cover. Tests
//! reach each kernel by calling it from inside this module.
//!
//! # Safety
//!
//! The hardware kernel is a safe `#[target_feature]` function with no
//! pointer in it: state and message words go in through `_mm_setr_epi32`
//! and come out through `_mm_extract_epi32`, and the SHA/SSE intrinsics it
//! uses take no pointers, so they are safe inside it. What is left is the
//! call *into* that function from code compiled without those features,
//! whose only precondition is that the CPU has them — checked by the `if`
//! directly above the call. That call is the single `unsafe` block in the
//! workspace's library code; this crate is `unsafe_code = "deny"` with one
//! `allow` on the function holding it, every other library `forbid`s it.
//!
//! # Examples
//!
//! ```
//! use eesmr_crypto::sha256::Sha256;
//!
//! let digest = Sha256::digest(b"abc");
//! assert_eq!(
//!     digest.to_hex(),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//! ```

use std::cell::Cell;

use crate::digest::{ByteSink, Digest};

thread_local! {
    static COMPRESSIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of SHA-256 compression-function calls this thread has made
/// since it started.
///
/// A deterministic work counter: for a seeded simulation the difference
/// across a run is a pure function of the seed, so tests pin it exactly
/// and an accidental re-hash fails where wall-clock noise would hide it.
pub fn compressions() -> u64 {
    COMPRESSIONS.with(Cell::get)
}

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
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

/// Initial hash state: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// Supports streaming input via [`Sha256::update`] and one-shot hashing via
/// [`Sha256::digest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes (mod 2^64).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0 }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress, data);
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress)
    }

    /// [`update`](Self::update) over an explicit compression function, so
    /// the tests can drive the hasher through each kernel in turn.
    fn update_with(&mut self, compress: impl Fn(&mut [u32; 8], &[u8; 64]), mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        // Top up a partially-filled buffer first.
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Full blocks straight from the input.
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        // Stash the tail.
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// [`finalize`](Self::finalize) over an explicit compression function.
    fn finalize_with(mut self, compress: impl Fn(&mut [u32; 8], &[u8; 64])) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length in
        // the last 8 bytes of a block — a second block if they do not fit.
        let bit_len = self.total_len.wrapping_mul(8);
        self.buffer[self.buffer_len] = 0x80;
        self.buffer[self.buffer_len + 1..].fill(0);
        if self.buffer_len >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer.fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Digest::from_bytes(out)
    }
}

impl ByteSink for Sha256 {
    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }
}

/// The one dispatch point: counts the call, then runs one kernel.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    COMPRESSIONS.with(|c| c.set(c.get() + 1));
    if !compress_hardware(state, block) {
        compress_portable(state, block);
    }
}

/// Runs the hardware kernel if this CPU has the SHA extensions; returns
/// whether it did. On `false`, `state` is untouched.
#[allow(unsafe_code)]
#[inline]
fn compress_hardware(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `shani::compress` is a safe function apart from its
        // `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`, so the
        // call's whole precondition is that the running CPU supports those
        // four features — which the condition above has just checked.
        unsafe { shani::compress(state, block) };
        return true;
    }
    let _ = (state, block); // unused off x86-64
    false
}

/// The hardware kernel: SHA-256 compression on the x86-64 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_setr_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Same function as [`compress_portable`](super::compress_portable).
    ///
    /// `sha256rnds2` does two rounds on the working variables split as
    /// `ABEF` / `CDGH` (highest lane first), taking `w[i] + K[i]` for the
    /// two rounds from the low half of its third operand; `sha256msg1` and
    /// `sha256msg2` extend the message schedule four words at a time
    /// (Intel SHA extensions programming reference, §"SHA256").
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Four words as one vector, lowest lane first.
        let lanes = |w: [u32; 4]| -> __m128i {
            _mm_setr_epi32(w[0] as i32, w[1] as i32, w[2] as i32, w[3] as i32)
        };
        let [a, b, c, d, e, f, g, h] = *state;
        let (abef_in, cdgh_in) = (lanes([f, e, b, a]), lanes([h, g, d, c]));
        let (mut abef, mut cdgh) = (abef_in, cdgh_in);

        // Four rounds on schedule words `$w` (w[4i..4i+4]) and their
        // round constants.
        macro_rules! rounds4 {
            ($i:expr, $w:expr) => {{
                let k = lanes([K[4 * $i], K[4 * $i + 1], K[4 * $i + 2], K[4 * $i + 3]]);
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            }};
        }
        // w[4i+4..4i+8] from the four vectors before it: `$next` holds
        // w[4i-12..4i-8] with its σ0 terms already added by `msg1`.
        macro_rules! extend {
            ($next:ident, $prev:ident, $cur:ident) => {
                $next = _mm_sha256msg2_epu32(
                    _mm_add_epi32($next, _mm_alignr_epi8::<4>($cur, $prev)),
                    $cur,
                );
            };
        }

        // Rounds 12–51: each group of four uses one schedule vector,
        // finishes the next and starts the one after.
        macro_rules! group {
            ($i:expr, $prev:ident, $cur:ident, $next:ident) => {
                rounds4!($i, $cur);
                extend!($next, $prev, $cur);
                $prev = _mm_sha256msg1_epu32($prev, $cur);
            };
        }

        let word = |i: usize| {
            u32::from_be_bytes([block[4 * i], block[4 * i + 1], block[4 * i + 2], block[4 * i + 3]])
        };
        let load =
            |i: usize| lanes([word(4 * i), word(4 * i + 1), word(4 * i + 2), word(4 * i + 3)]);
        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));

        rounds4!(0, w0);
        rounds4!(1, w1);
        w0 = _mm_sha256msg1_epu32(w0, w1);
        rounds4!(2, w2);
        w1 = _mm_sha256msg1_epu32(w1, w2);
        group!(3, w2, w3, w0);
        group!(4, w3, w0, w1);
        group!(5, w0, w1, w2);
        group!(6, w1, w2, w3);
        group!(7, w2, w3, w0);
        group!(8, w3, w0, w1);
        group!(9, w0, w1, w2);
        group!(10, w1, w2, w3);
        group!(11, w2, w3, w0);
        group!(12, w3, w0, w1);
        rounds4!(13, w1);
        extend!(w2, w0, w1);
        rounds4!(14, w2);
        extend!(w3, w1, w2);
        rounds4!(15, w3);

        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

/// The portable kernel: scalar FIPS 180-4 §6.2.2, and the reference the
/// hardware kernel is tested against.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h.wrapping_add(big_s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    type Kernel = fn(&mut [u32; 8], &[u8; 64]);

    fn hardware(state: &mut [u32; 8], block: &[u8; 64]) {
        assert!(compress_hardware(state, block), "only called once the probe succeeded");
    }

    /// Every kernel this host can execute: the portable one always, the
    /// hardware one when the CPU has the SHA extensions (a printed note
    /// otherwise, so the log says what a green run covered).
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut kernels: Vec<(&'static str, Kernel)> = vec![("portable", compress_portable)];
        let mut probe = H0;
        if compress_hardware(&mut probe, &[0u8; 64]) {
            kernels.push(("hardware", hardware));
        } else {
            println!("no SHA extensions on this host: hardware kernel skipped");
        }
        kernels
    }

    /// Hashes `data` through one kernel, fed in two pieces split at `split`.
    fn hex_via(kernel: Kernel, data: &[u8], split: usize) -> String {
        let mut h = Sha256::new();
        h.update_with(kernel, &data[..split]);
        h.update_with(kernel, &data[split..]);
        h.finalize_with(kernel).to_hex()
    }

    /// Asserts `data` hashes to `expected` through the dispatcher and
    /// through each kernel explicitly.
    fn assert_vector(data: &[u8], expected: &str) {
        assert_eq!(Sha256::digest(data).to_hex(), expected, "dispatcher");
        for (name, kernel) in kernels() {
            assert_eq!(hex_via(kernel, data, 0), expected, "{name} kernel");
        }
    }

    #[test]
    fn empty_input_matches_fips_vector() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc_matches_fips_vector() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_message_matches_fips_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn hello_world_matches_known_digest() {
        assert_vector(
            b"hello world",
            "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9",
        );
    }

    #[test]
    fn million_a_matches_fips_vector() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn kernels_agree_on_random_states_and_blocks(
            state in prop::collection::vec(any::<u32>(), 8),
            block in prop::collection::vec(any::<u8>(), 64),
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let block: [u8; 64] = block.try_into().unwrap();
            let mut expected = state;
            compress_portable(&mut expected, &block);
            let mut got = state;
            if compress_hardware(&mut got, &block) {
                prop_assert_eq!(got, expected, "state {:x?}, block {:x?}", state, block);
            }
        }
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let expected = Sha256::digest(&data).to_hex();
        let kernels = kernels();
        for split in [0, 1, 55, 56, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize().to_hex(), expected, "split at {split}");
            for &(name, kernel) in &kernels {
                assert_eq!(hex_via(kernel, &data, split), expected, "{name}, split at {split}");
            }
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut h = Sha256::new();
        for chunk in data.chunks(3) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn padding_boundaries() {
        // Lengths around the 55/56/64-byte padding boundaries exercise the
        // one-vs-two padding block paths.
        let kernels = kernels();
        for len in 50..70usize {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            let streamed = h.finalize();
            assert_eq!(streamed, Sha256::digest(&data), "len {len}");
            for &(name, kernel) in &kernels {
                assert_eq!(hex_via(kernel, &data, 0), streamed.to_hex(), "{name}, len {len}");
            }
        }
    }

    #[test]
    fn compressions_count_blocks_including_padding() {
        // Counted at the dispatcher, so the same on a host with the SHA
        // extensions and on one without.
        for (len, blocks) in [(0usize, 1u64), (55, 1), (56, 2), (64, 2), (119, 2), (120, 3)] {
            let before = compressions();
            Sha256::digest(&vec![7u8; len]);
            assert_eq!(compressions() - before, blocks, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
        assert_ne!(Sha256::digest(b""), Sha256::digest(b"\x00"));
    }
}

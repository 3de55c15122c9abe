//! SHA-256 (FIPS 180-4) — the artifact's whole-file content digest,
//! which doubles as its content address in a timeline's `worlds/`.
//!
//! Hand-rolled for the same reason as [`crate::crc32`]: no registry
//! access. On an x86-64 CPU with the SHA extensions (SHA-NI, detected
//! at run time) the block compression runs on them; everywhere else it
//! runs the portable compression below, which is also the reference
//! the tests compare the hardware kernel against. Both are pinned by
//! the FIPS test vectors.

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// One 64-byte block through the portable compression function.
fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
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

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
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

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compresses every whole 64-byte block of `blocks` (a multiple of 64
/// bytes long) with the portable kernel.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress_block(state, block);
    }
}

/// Compresses every whole 64-byte block of `blocks` with the fastest
/// kernel this CPU runs.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `available` confirmed at run time that this CPU has
        // every feature `shani::compress` is compiled for.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// The SHA-256 digest of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    digest_with(data, compress)
}

/// SHA-256 of `data` with `compress` as the block kernel: the message
/// blocks in one call, then the one or two padding blocks.
fn digest_with(data: &[u8], compress: fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
    let mut state = H0;
    let whole = data.len() - data.len() % 64;
    compress(&mut state, &data[..whole]);

    // Padding: 0x80, zeros, then the bit length as a big-endian u64,
    // in one or two final blocks.
    let rest = &data[whole..];
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let tail_len = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress(&mut state, &tail[..tail_len]);

    let mut digest = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        digest[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// The SHA-NI block kernel (Intel SHA extensions). The state lives in
/// two registers in the order the `sha256rnds2` instruction wants,
/// `ABEF` and `CDGH`; each `rounds4` step runs four rounds, and from
/// the fifth step on `schedule` derives the next four message words
/// from the previous sixteen.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU runs [`compress`]. The standard library caches
    /// the detection, so this is a few loads after the first call.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// The four big-endian message words at `block[at..at + 16]`.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load(block: &[u8], at: usize) -> __m128i {
        // Byte order within each 32-bit lane: the message is
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_loadu_si128(block[at..at + 16].as_ptr().cast()), bswap)
    }

    /// Message words `W[t..t + 4]` from the previous sixteen, `v0`
    /// holding the oldest four.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t1 = _mm_sha256msg1_epu32(v0, v1);
        let t2 = _mm_alignr_epi8(v3, v2, 4);
        _mm_sha256msg2_epu32(_mm_add_epi32(t1, t2), v3)
    }

    /// Four rounds over message words `w`, with round constants
    /// `K[4 * i..4 * i + 4]`.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_loadu_si128(K[4 * i..4 * i + 4].as_ptr().cast());
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1, which
    /// [`available`] checks.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let dcba = _mm_loadu_si128(state[..4].as_ptr().cast());
        let hgfe = _mm_loadu_si128(state[4..].as_ptr().cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [
                load(block, 0),
                load(block, 16),
                load(block, 32),
                load(block, 48),
            ];
            for (i, &words) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, words, i);
            }
            for i in 4..16 {
                let next = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                w[i % 4] = next;
                rounds4(&mut abef, &mut cdgh, next, i);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state[..4].as_mut_ptr().cast(), dcba);
        _mm_storeu_si128(state[4..].as_mut_ptr().cast(), hgef);
    }
}

/// Lower-case hex rendering of a digest.
pub fn hex(digest: &[u8]) -> String {
    let mut out = String::with_capacity(digest.len() * 2);
    for byte in digest {
        use std::fmt::Write;
        let _ = write!(out, "{byte:02x}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Checks a FIPS 180-4 example through the dispatched kernel and
    /// the portable one.
    fn assert_fips(message: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(message)), expected, "dispatched");
        assert_eq!(
            hex(&digest_with(message, compress_portable)),
            expected,
            "portable"
        );
    }

    #[test]
    fn fips_vector_empty() {
        assert_fips(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_fips(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn fips_vector_two_blocks() {
        assert_fips(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        assert_fips(
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
              ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        );
    }

    #[test]
    fn fips_vector_one_million_a() {
        assert_fips(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// The hardware kernel is exercised only where the CPU has it;
    /// elsewhere [`sha256`] runs the portable kernel and the property
    /// below compares it with itself.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sha_ni_kernel_equals_the_portable_one() {
        if !shani::available() {
            eprintln!("this CPU lacks SHA-NI: only the portable kernel is tested");
            return;
        }
        let mut hardware = H0;
        let mut portable = H0;
        let blocks: Vec<u8> = (0..=255u8).cycle().take(64 * 5).collect();
        // SAFETY: `available` just confirmed the kernel's CPU features.
        unsafe { shani::compress(&mut hardware, &blocks) };
        compress_portable(&mut portable, &blocks);
        assert_eq!(hardware, portable);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // The dispatched kernel equals the portable one over every
        // length up to 4096 and every start offset within 16 bytes of
        // alignment.
        #[test]
        fn prop_dispatched_kernel_equals_the_portable_reference(
            data in proptest::collection::vec(any::<u8>(), 4096 + 16),
            len in 0usize..=4096,
        ) {
            for offset in 0..16 {
                let slice = &data[offset..offset + len];
                prop_assert_eq!(
                    sha256(slice),
                    digest_with(slice, compress_portable),
                    "offset {}", offset
                );
            }
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 55/56-byte one-vs-two-final-block edge
        // and the 64-byte block edge all hash without panicking and all
        // hash differently.
        let mut seen = std::collections::BTreeSet::new();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xA5u8; len];
            assert!(seen.insert(sha256(&data)), "collision at len {len}");
        }
    }
}

//! BLAKE2s-256, implemented from scratch (RFC 7693), 32-byte output, in three
//! forms over one compression function.
//!
//! - Unkeyed ([`blake2s`]): the replicated KV state hashes every
//!   committed value with it. BLAKE2s has SHA-256's 128-bit collision
//!   resistance and hashes long inputs in about half its time in portable
//!   code (ten rounds of add-rotate-xor on sixteen words, no message
//!   schedule).
//! - Many messages side by side ([`blake2s_many`], [`blake2s_lanes`]): the
//!   leaves of a round's writes are independent, so [`LANES`] messages of one
//!   length are hashed together, word `w` of lane `l` belonging to message
//!   `l` (the multi-message layout of BLAKE2sp and of BLAKE3's `hash_many`).
//!   The compression is a loop over the lanes, which LLVM's loop vectoriser
//!   turns into packed SSE2 on the baseline x86-64 target — no `unsafe`, no
//!   target feature: four 32-bit lanes fill one 128-bit register per state
//!   word. Every digest is plain BLAKE2s-256. No test sees the vectoriser;
//!   after touching `compress`, `objdump -d --no-show-raw-insn -C
//!   target/release/ava-exp` must still show hundreds of `paddd`/`pxor`
//!   (and `psrld`/`pslld`/`por` for the rotations) in one of the two
//!   `ava_crypto::blake2s::blake2s_lanes` bodies, the four-lane one; the
//!   one-lane body is scalar `rol`s.
//! - Keyed with a 32-byte key ([`Blake2sKey`]): the tag of every simulated
//!   signature. BLAKE2's keyed mode is a MAC on its own (RFC 7693 §2.5), with
//!   no HMAC nesting, so once the key block is compressed a tag over a
//!   32-byte digest is one compression.
//!
//! The one-message forms are the compression's one-lane instance. The key
//! length is part of the parameter block, so a keyed tag never equals the
//! unkeyed hash of the same bytes. Every other digest in the tree stays on
//! SHA-256.

/// The initial chaining value: SHA-256's.
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The parameter block of an unkeyed 32-byte digest (depth 1, fanout 1, key
/// length 0, digest length 32), XORed into the first IV word.
const UNKEYED: u32 = 0x0101_0020;

/// The message word permutation of each of the ten rounds.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Messages [`blake2s_many`] hashes side by side: four 32-bit lanes fill one
/// 128-bit SSE2 register per state word. Four over eight (two registers a
/// word) by measurement: a round's 99 leaves of 1 064 bytes hashed at 1.28
/// ns/B with four against 1.35 with eight (medians of 60 alternating runs
/// on one 2-vCPU x86-64 host).
pub const LANES: usize = 4;

/// The mixing function `G` on words `a, b, c, d` of `v` with message words `x, y`.
#[inline(always)]
fn g(v: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize, x: u32, y: u32) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(12);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(8);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(7);
}

/// The compression function, once for `N` messages: compress block `m` into
/// chaining value `h`, where `h[w][l]` and `m[w][l]` are word `w` of lane `l`.
/// The lanes share `t`, the bytes hashed through this block, and `last`, so
/// they hold messages of one length.
///
/// The loop is over the lanes, each pass one message's scalar compression.
/// Word `w` of consecutive lanes is adjacent in memory, so LLVM's loop
/// vectoriser runs four passes at once in SSE2 registers (`paddd`, `pxor`,
/// and `psrld`/`pslld`/`por` for the rotations): for `N = 4`, one vector
/// pass. The body is too large to be unrolled first, which is what keeps it
/// a loop the vectoriser sees. `N = 1` is the plain scalar compression.
#[inline(always)]
fn compress<const N: usize>(h: &mut [[u32; N]; 8], m: &[[u32; N]; 16], t: u64, last: bool) {
    for l in 0..N {
        let mut v = [0u32; 16];
        for w in 0..8 {
            v[w] = h[w][l];
            v[w + 8] = IV[w];
        }
        v[12] ^= t as u32;
        v[13] ^= (t >> 32) as u32;
        if last {
            v[14] = !v[14];
        }
        // Each round's permutation is a constant index once the rounds are
        // unrolled.
        macro_rules! round {
            ($($r:literal)*) => {$({
                let s = &SIGMA[$r];
                g(&mut v, 0, 4, 8, 12, m[s[0]][l], m[s[1]][l]);
                g(&mut v, 1, 5, 9, 13, m[s[2]][l], m[s[3]][l]);
                g(&mut v, 2, 6, 10, 14, m[s[4]][l], m[s[5]][l]);
                g(&mut v, 3, 7, 11, 15, m[s[6]][l], m[s[7]][l]);
                g(&mut v, 0, 5, 10, 15, m[s[8]][l], m[s[9]][l]);
                g(&mut v, 1, 6, 11, 12, m[s[10]][l], m[s[11]][l]);
                g(&mut v, 2, 7, 8, 13, m[s[12]][l], m[s[13]][l]);
                g(&mut v, 3, 4, 9, 14, m[s[14]][l], m[s[15]][l]);
            })*};
        }
        round!(0 1 2 3 4 5 6 7 8 9);
        for w in 0..8 {
            h[w][l] ^= v[w] ^ v[w + 8];
        }
    }
}

/// The one-lane instance on one block's bytes: compress `block` into `h`.
fn compress_one(h: &mut [u32; 8], block: &[u8; 64], t: u64, last: bool) {
    let mut lane = h.map(|w| [w]);
    compress(&mut lane, &block_words(block).map(|w| [w]), t, last);
    *h = lane.map(|[w]| w);
}

/// The sixteen little-endian words of a block.
fn block_words(block: &[u8; 64]) -> [u32; 16] {
    std::array::from_fn(|w| {
        u32::from_le_bytes(block[4 * w..4 * w + 4].try_into().expect("4 bytes"))
    })
}

/// A BLAKE2s-256 MAC key: the chaining value after the parameter block of a
/// 32-byte key and a 32-byte tag is folded into the IV and the key block is
/// compressed. 32 bytes, cheap to copy.
#[derive(Clone, Copy)]
pub struct Blake2sKey {
    h: [u32; 8],
}

impl Blake2sKey {
    /// Key the MAC with `key`: the key block (the key, zero-padded to 64
    /// bytes) is the first, non-final block of every keyed message.
    pub fn new(key: &[u8; 32]) -> Self {
        let mut h = IV;
        // Depth 1, fanout 1, key length 32, digest length 32.
        h[0] ^= 0x0101_2020;
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(key);
        compress_one(&mut h, &block, 64, false);
        Blake2sKey { h }
    }

    /// The tag of a 32-byte `msg` under this key: one final compression, at
    /// 96 bytes hashed (the key block and the message).
    pub fn mac(&self, msg: &[u8; 32]) -> [u8; 32] {
        let mut h = self.h;
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(msg);
        compress_one(&mut h, &block, 96, true);
        words_to_bytes(&h)
    }
}

/// The little-endian bytes of a chaining value.
fn words_to_bytes(h: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// BLAKE2s-256 of `data`: the one-lane instance with no head.
pub fn blake2s(data: &[u8]) -> [u8; 32] {
    blake2s_lanes([(&[], data)])[0]
}

/// Block `b` of the message `head ‖ body` when it does not lie wholly in the
/// body: its bytes from the head and the body, zero past the message's end.
fn edge_block<const H: usize>(head: &[u8; H], body: &[u8], b: usize) -> [u8; 64] {
    let start = 64 * b;
    let mut block = [0u8; 64];
    let from_head = head.get(start..).unwrap_or_default();
    let n = from_head.len().min(64);
    block[..n].copy_from_slice(&from_head[..n]);
    let from_body = body.get((start + n).saturating_sub(H)..).unwrap_or_default();
    let m = from_body.len().min(64 - n);
    block[n..n + m].copy_from_slice(&from_body[..m]);
    block
}

/// Unkeyed BLAKE2s-256 of `N` messages `head ‖ body` at once, each block
/// read from the head and body where they lie: lane `l` hashes
/// `messages[l]`. Every body has one length (the lanes share the byte
/// counter and the final flag). `N = 1` hashes one message.
///
/// # Panics
///
/// If the bodies' lengths differ.
pub fn blake2s_lanes<const N: usize, const H: usize>(
    messages: [(&[u8; H], &[u8]); N],
) -> [[u8; 32]; N] {
    let body_len = messages.first().map_or(0, |(_, body)| body.len());
    assert!(messages.iter().all(|(_, body)| body.len() == body_len), "lanes of one length");
    let len = H + body_len;
    let blocks = len.div_ceil(64).max(1);
    let mut h = IV.map(|iv| [iv; N]);
    h[0] = [IV[0] ^ UNKEYED; N];
    let mut m = [[0u32; N]; 16];
    for b in 0..blocks {
        // A block that lies wholly in the bodies is read as words where it
        // lies (the lanes share the length, so all of them or none do).
        let whole = (64 * b).checked_sub(H).filter(|at| at + 64 <= body_len);
        for (l, (head, body)) in messages.iter().enumerate() {
            match whole {
                Some(at) => {
                    for (w, word) in body[at..at + 64].chunks_exact(4).enumerate() {
                        m[w][l] = u32::from_le_bytes(word.try_into().expect("4 bytes"));
                    }
                }
                None => {
                    let words = block_words(&edge_block(head, body, b));
                    (0..16).for_each(|w| m[w][l] = words[w]);
                }
            }
        }
        let last = b + 1 == blocks;
        let t = if last { len as u64 } else { 64 * (b as u64 + 1) };
        compress(&mut h, &m, t, last);
    }
    std::array::from_fn(|l| words_to_bytes(&h.map(|row| row[l])))
}

/// Unkeyed BLAKE2s-256 of each message `head ‖ body`, handed to `digest` in
/// the order given; returns the lane groups hashed. Each run of consecutive
/// messages of one length is hashed [`LANES`] at a time
/// ([`blake2s_lanes`]), and the fewer than `LANES` left at its end one at a
/// time, each a group of its own. A group is held in a fixed array; the
/// bodies are read where they lie.
pub fn blake2s_many<'a, const H: usize>(
    messages: impl IntoIterator<Item = ([u8; H], &'a [u8])>,
    mut digest: impl FnMut([u8; 32]),
) -> u64 {
    let mut group: [([u8; H], &[u8]); LANES] = [([0; H], &[]); LANES];
    let mut held = 0;
    let mut groups = 0;
    fn one_at_a_time<const H: usize>(
        held: &[([u8; H], &[u8])],
        digest: &mut impl FnMut([u8; 32]),
    ) -> u64 {
        for (head, body) in held {
            digest(blake2s_lanes([(head, *body)])[0]);
        }
        held.len() as u64
    }
    for message in messages {
        if held > 0 && message.1.len() != group[0].1.len() {
            groups += one_at_a_time(&group[..held], &mut digest);
            held = 0;
        }
        group[held] = message;
        held += 1;
        if held == LANES {
            let lanes: [_; LANES] =
                blake2s_lanes(std::array::from_fn(|l| (&group[l].0, group[l].1)));
            lanes.into_iter().for_each(&mut digest);
            groups += 1;
            held = 0;
        }
    }
    groups + one_at_a_time(&group[..held], &mut digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The test message of `len` bytes: byte `i` is `i % 251`.
    fn message(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    // Known answers from Python's `hashlib.blake2s(m).hexdigest()`.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&blake2s(b"")),
            "69217a3079908094e11121d042354a7c1f55b6482ca1a51e1b250dfd1ed0eef9"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&blake2s(b"abc")),
            "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982"
        );
    }

    #[test]
    fn block_edges() {
        // Lengths around one and two whole blocks, where the last block must
        // be held back for the final-flag compression, plus a KV leaf's
        // 1 064 bytes and a long message.
        let cases = [
            (1, "e34d74dbaf4ff4c6abd871cc220451d2ea2648846c7757fbaac82fe51ad64bea"),
            (55, "f4495470f226c8c214be08fdfad4bc4a2a9dbea9136a210df0d4b64929e6fc14"),
            (56, "e290dd270b467f34ab1c002d340fa016257ff19e5833fdbbf2cb401c3b2817de"),
            (63, "e57cb79487dd57902432b250733813bd96a84efce59f650fac26e6696aefafc3"),
            (64, "56f34e8b96557e90c1f24b52d0c89d51086acf1b00f634cf1dde9233b8eaaa3e"),
            (65, "1b53ee94aaf34e4b159d48de352c7f0661d0a40edff95a0b1639b4090e974472"),
            (127, "f18417b39d617ab1c18fdf91ebd0fc6d5516bb34cf39364037bce81fa04cecb1"),
            (128, "1fa877de67259d19863a2a34bcc6962a2b25fcbf5cbecd7ede8f1fa36688a796"),
            (129, "5bd169e67c82c2c2e98ef7008bdf261f2ddf30b1c00f9e7f275bb3e8a28dc9a2"),
            (1_064, "b5732cb18447c2893ea6fe3ea54d2d9cda01900f11be245ec5955229850765b3"),
            (10_000, "ccc0841dd7c39f8fe87956a69f975c51c7fc2e021e0efc9f566e83060c4df5ce"),
        ];
        for (len, expect) in cases {
            assert_eq!(hex(&blake2s(&message(len))), expect, "{len} bytes");
        }
    }

    // Known answers from Python's `hashlib.blake2s(digest, key=key).hexdigest()`.
    #[test]
    fn keyed_mac_known_answers() {
        let unhex = |s: &str| -> [u8; 32] {
            let bytes: Vec<u8> =
                (0..64).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect();
            bytes.try_into().unwrap()
        };
        let zero = [0u8; 32];
        let ones = [0xffu8; 32];
        let counting: [u8; 32] = std::array::from_fn(|i| i as u8);
        let counting_on: [u8; 32] = std::array::from_fn(|i| 32 + i as u8);
        // The derived secret of `ReplicaId(0)`: SHA-256 of "ava-secret-" and
        // the id's four little-endian bytes.
        let replica_0 = unhex("5e838ffc91e3fdc30256921a238d0ff615097dfd2c2206bf1eacfeb779558b2a");
        // SHA-256("abc").
        let abc = unhex("ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        let cases = [
            (zero, zero, "738eb88bdf0bb62c484149e2b3d37a4c896bef4e844df235335ccbf9bcfb6795"),
            (ones, ones, "12a327efce77fd37f3e3b8fc8895620e977588fd5f0c8c1efa533f6ed3aabda4"),
            (zero, ones, "7903e26a861395ddcc34cba014726eea4beee46288135a5caa741bf064cfaed9"),
            (ones, zero, "823c3df4dc7aebecb710b46c4df08a69c363bffec564fb648c7d05d11cb0aaf1"),
            (replica_0, abc, "f56e1e1cb11dbbbc3830c7c7e71382665c96d28bb0487cd96d62295f16fa9353"),
            (replica_0, zero, "709db9ef43d4280d6f6b65d184f577afaecfcef4aa5e32cf5e0bec3af70f23ea"),
            (
                counting,
                counting_on,
                "c9b45aa049026da2142b324b85a4cbb1e796413c7ab08a6a90a39fcfb8da5558",
            ),
        ];
        for (key, digest, expect) in cases {
            let tag = Blake2sKey::new(&key).mac(&digest);
            assert_eq!(hex(&tag), expect, "key {}, digest {}", hex(&key), hex(&digest));
        }
    }

    #[test]
    fn a_keyed_tag_is_not_the_unkeyed_hash() {
        // The key length in the parameter block separates the signature tags
        // from the KV leaf hash, the zero key included.
        let zero = [0u8; 32];
        assert_eq!(
            hex(&blake2s(&zero)),
            "320b5ea99e653bc2b593db4130d10a4efd3a0b4cc2e1a6672b678d71dfbd33ad"
        );
        assert_ne!(Blake2sKey::new(&zero).mac(&zero), blake2s(&zero));
        // Nor the unkeyed hash of the very blocks it compresses, the zero key
        // block and the message: only the parameter block tells them apart.
        let mut both = [0u8; 96];
        both[64..].fill(0xab);
        assert_ne!(Blake2sKey::new(&zero).mac(&[0xab; 32]), blake2s(&both));
        let key = [7u8; 32];
        for digest in [[0u8; 32], [0xffu8; 32], key] {
            assert_ne!(Blake2sKey::new(&key).mac(&digest), blake2s(&digest));
        }
    }

    /// Keyed BLAKE2s-256 of any `msg` as RFC 7693 writes it: the key length in
    /// the parameter block, the zero-padded key block first, then the message
    /// blocks, the last one zero-padded and final.
    fn textbook_keyed(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut h = IV;
        h[0] ^= 0x0101_0020 ^ ((key.len() as u32) << 8);
        let mut padded = [0u8; 64].to_vec();
        padded[..key.len()].copy_from_slice(key);
        padded.extend_from_slice(msg);
        let total = padded.len() as u64;
        padded.resize(padded.len().div_ceil(64) * 64, 0);
        let blocks = padded.len() / 64;
        for (i, block) in padded.chunks_exact(64).enumerate() {
            let last = i + 1 == blocks;
            let t = if last { total } else { 64 * (i as u64 + 1) };
            compress_one(&mut h, block.try_into().unwrap(), t, last);
        }
        words_to_bytes(&h)
    }

    #[test]
    fn keyed_mac_matches_the_textbook_construction() {
        // The textbook form agrees with Python's answer for (zero key, zero digest).
        assert_eq!(
            hex(&textbook_keyed(&[0; 32], &[0; 32])),
            "738eb88bdf0bb62c484149e2b3d37a4c896bef4e844df235335ccbf9bcfb6795"
        );
        for k in 0..16u8 {
            let key: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(31) ^ k);
            let key_state = Blake2sKey::new(&key);
            for m in 0..16u8 {
                let msg: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(97) ^ m);
                assert_eq!(key_state.mac(&msg), textbook_keyed(&key, &msg), "key {k}, digest {m}");
            }
        }
    }

    #[test]
    fn every_bit_of_key_and_digest_moves_the_tag() {
        let key = [0x5au8; 32];
        let digest = [0xa5u8; 32];
        let tag = Blake2sKey::new(&key).mac(&digest);
        for bit in 0..256 {
            let mut flipped = key;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(Blake2sKey::new(&flipped).mac(&digest), tag, "key bit {bit}");
            let mut flipped = digest;
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(Blake2sKey::new(&key).mac(&flipped), tag, "digest bit {bit}");
        }
    }

    #[test]
    fn every_lane_gives_the_rfc_answer_for_abc() {
        // RFC 7693 Appendix B: BLAKE2s-256("abc").
        let abc = "508c5e8c327c14e2e1a72ba34eeb452f37458b209ed63a294d999b4c86675982";
        let others: [[u8; 3]; LANES] = std::array::from_fn(|l| [b'x', b'y', b'0' + l as u8]);
        for lane in 0..LANES {
            let body = |l: usize| if l == lane { &b"abc"[..] } else { &others[l][..] };
            let digests = blake2s_lanes::<LANES, 0>(std::array::from_fn(|l| (&[], body(l))));
            for (l, digest) in digests.iter().enumerate() {
                assert_eq!(*digest, blake2s(body(l)), "lane {l} of {lane}");
            }
            assert_eq!(hex(&digests[lane]), abc, "lane {lane}");
            // The same through a head: one whole word of it, then the rest.
            let digests = blake2s_lanes::<LANES, 4>(std::array::from_fn(|l| {
                (if l == lane { b"abc\0" } else { b"xyz\0" }, &b""[..])
            }));
            assert_eq!(digests[lane], blake2s(b"abc\0"));
        }
    }

    /// `count` messages of the lengths `len(i)`, each its own content, as
    /// `head ‖ body` with an `H`-byte head where the message is that long
    /// (the head is then its first `H` bytes).
    fn batch<const H: usize>(count: usize, len: impl Fn(usize) -> usize) -> Vec<Vec<u8>> {
        (0..count).map(|i| (0..len(i)).map(|j| (j * 7 + i * 13 + H) as u8).collect()).collect()
    }

    /// What [`blake2s_many`] gives for `messages`, with an `H`-byte head
    /// where a message is that long and through a zero-byte head otherwise.
    fn many<const H: usize>(messages: &[Vec<u8>]) -> (Vec<[u8; 32]>, u64) {
        let mut digests = Vec::new();
        let groups = if messages.iter().all(|m| m.len() >= H) {
            let split = messages.iter().map(|m| (m[..H].try_into().unwrap(), &m[H..]));
            blake2s_many::<H>(split, |d| digests.push(d))
        } else {
            blake2s_many::<0>(messages.iter().map(|m| ([], &m[..])), |d| digests.push(d))
        };
        (digests, groups)
    }

    #[test]
    fn many_messages_hash_as_one_each() {
        for count in 1..=2 * LANES + 1 {
            let expect_groups = (count / LANES + count % LANES) as u64;
            for len in 0..=300 {
                let messages = batch::<40>(count, |_| len);
                let expect: Vec<[u8; 32]> = messages.iter().map(|m| blake2s(m)).collect();
                assert_eq!(
                    many::<40>(&messages),
                    (expect.clone(), expect_groups),
                    "{count} x {len}"
                );
                if len % 16 == 0 {
                    assert_eq!(many::<0>(&messages).0, expect, "{count} x {len}, no head");
                    assert_eq!(many::<4>(&messages).0, expect, "{count} x {len}, 4-byte head");
                }
            }
            // Mixed lengths: runs of one length interleaved with others,
            // which must come back in the order given.
            for shape in 0..8 {
                let messages = batch::<40>(count, |i| 40 + (i * shape + i % 3) % 70 * 3);
                let expect: Vec<[u8; 32]> = messages.iter().map(|m| blake2s(m)).collect();
                assert_eq!(many::<40>(&messages).0, expect, "{count} mixed, shape {shape}");
            }
        }
        // Runs of one length, each hashed in full groups and then one at a
        // time: 11 (two groups and three), 1, 4 (one group) and 5 (one group
        // and one).
        let runs = [(2 * LANES + 3, 100), (1, 64), (LANES, 1_024), (LANES + 1, 100)];
        let mut messages: Vec<Vec<u8>> = Vec::new();
        for (count, len) in runs {
            for mut m in batch::<40>(count, |_| len) {
                m[0] = messages.len() as u8;
                messages.push(m);
            }
        }
        let expect: Vec<[u8; 32]> = messages.iter().map(|m| blake2s(m)).collect();
        assert_eq!(many::<40>(&messages), (expect, 2 + 3 + 1 + 1 + 1 + 1));
        assert_eq!(many::<40>(&[]), (Vec::new(), 0));
    }
}

//! BLAKE2s-256, implemented from scratch (RFC 7693), 32-byte output, in two
//! modes.
//!
//! - Unkeyed ([`Blake2s`], [`blake2s`]): the replicated KV state hashes every
//!   committed value with it. BLAKE2s has SHA-256's 128-bit collision
//!   resistance and hashes long inputs in about half its time in portable
//!   code (ten rounds of add-rotate-xor on sixteen words, no message
//!   schedule).
//! - Keyed with a 32-byte key ([`Blake2sKey`]): the tag of every simulated
//!   signature. BLAKE2's keyed mode is a MAC on its own (RFC 7693 §2.5), with
//!   no HMAC nesting, so once the key block is compressed a tag over a
//!   32-byte digest is one compression.
//!
//! The key length is part of the parameter block, so a keyed tag never
//! equals the unkeyed hash of the same bytes. Every other digest in the tree
//! stays on SHA-256.

/// The initial chaining value: SHA-256's.
const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

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

/// Incremental BLAKE2s-256 hasher.
///
/// Unlike SHA-256, the last block is compressed with a final flag set, so a
/// full buffered block is only compressed once more input is known to follow:
/// a message of exactly `64·k` bytes keeps its last block for
/// [`Blake2s::finalize`].
pub struct Blake2s {
    h: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    /// Bytes compressed so far (the RFC's counter `t`).
    compressed: u64,
}

impl Default for Blake2s {
    fn default() -> Self {
        Self::new()
    }
}

impl Blake2s {
    /// New hasher: the IV with the parameter block of an unkeyed 32-byte
    /// digest (depth 1, fanout 1, key length 0, digest length 32) folded in.
    pub fn new() -> Self {
        let mut h = IV;
        h[0] ^= 0x0101_0020;
        Blake2s { h, buffer: [0u8; 64], buffer_len: 0, compressed: 0 }
    }

    /// Feed bytes into the hasher.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if data.is_empty() {
                return;
            }
            // The buffer is full and more input follows: it is not the last block.
            self.compressed += 64;
            compress(&mut self.h, &self.buffer, self.compressed, false);
            self.buffer_len = 0;
        }
        // Whole blocks are compressed where they lie, except the last one,
        // which might be the message's final block.
        while data.len() > 64 {
            let (block, rest) = data.split_at(64);
            self.compressed += 64;
            compress(&mut self.h, block.try_into().expect("split at 64"), self.compressed, false);
            data = rest;
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// Finish the hash and return the digest bytes.
    pub fn finalize(mut self) -> [u8; 32] {
        self.compressed += self.buffer_len as u64;
        self.buffer[self.buffer_len..].fill(0);
        compress(&mut self.h, &self.buffer, self.compressed, true);
        words_to_bytes(&self.h)
    }
}

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

/// Compress one block into `h`; `t` counts the bytes hashed through this block.
fn compress(h: &mut [u32; 8], block: &[u8; 64], t: u64, last: bool) {
    let mut m = [0u32; 16];
    for (word, chunk) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    let mut v = [0u32; 16];
    v[..8].copy_from_slice(h);
    v[8..].copy_from_slice(&IV);
    v[12] ^= t as u32;
    v[13] ^= (t >> 32) as u32;
    if last {
        v[14] = !v[14];
    }
    // Each round's permutation is a constant index once the loop is unrolled.
    macro_rules! round {
        ($($r:literal)*) => {$({
            let s = &SIGMA[$r];
            g(&mut v, 0, 4, 8, 12, m[s[0]], m[s[1]]);
            g(&mut v, 1, 5, 9, 13, m[s[2]], m[s[3]]);
            g(&mut v, 2, 6, 10, 14, m[s[4]], m[s[5]]);
            g(&mut v, 3, 7, 11, 15, m[s[6]], m[s[7]]);
            g(&mut v, 0, 5, 10, 15, m[s[8]], m[s[9]]);
            g(&mut v, 1, 6, 11, 12, m[s[10]], m[s[11]]);
            g(&mut v, 2, 7, 8, 13, m[s[12]], m[s[13]]);
            g(&mut v, 3, 4, 9, 14, m[s[14]], m[s[15]]);
        })*};
    }
    round!(0 1 2 3 4 5 6 7 8 9);
    for (i, word) in h.iter_mut().enumerate() {
        *word ^= v[i] ^ v[i + 8];
    }
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
        compress(&mut h, &block, 64, false);
        Blake2sKey { h }
    }

    /// The tag of a 32-byte `msg` under this key: one final compression, at
    /// 96 bytes hashed (the key block and the message).
    pub fn mac(&self, msg: &[u8; 32]) -> [u8; 32] {
        let mut h = self.h;
        let mut block = [0u8; 64];
        block[..32].copy_from_slice(msg);
        compress(&mut h, &block, 96, true);
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

/// One-shot BLAKE2s-256 of `data`.
pub fn blake2s(data: &[u8]) -> [u8; 32] {
    let mut h = Blake2s::new();
    h.update(data);
    h.finalize()
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
            let data = message(len);
            assert_eq!(hex(&blake2s(&data)), expect, "one-shot, {len} bytes");
            if len > 129 {
                continue;
            }
            // The same message through the buffered path, split at every offset.
            for split in 0..=len {
                let mut h = Blake2s::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(hex(&h.finalize()), expect, "{len} bytes split at {split}");
            }
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
            compress(&mut h, block.try_into().unwrap(), t, last);
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
    fn incremental_matches_one_shot() {
        let data = message(10_000);
        for chunk_len in [1, 37, 64, 100] {
            let mut h = Blake2s::new();
            for chunk in data.chunks(chunk_len) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), blake2s(&data), "chunks of {chunk_len}");
        }
    }
}

//! BLAKE2s-256, implemented from scratch (RFC 7693): unkeyed, 32-byte output.
//!
//! BLAKE2s has SHA-256's 128-bit collision resistance and hashes long inputs
//! in about half its time in portable code (ten rounds of add-rotate-xor on
//! sixteen words, no message schedule). The replicated KV state hashes every
//! committed value with it; everything else in the tree stays on SHA-256.

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
        let mut out = [0u8; 32];
        for (i, word) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
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

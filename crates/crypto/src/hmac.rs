//! HMAC-SHA-256 (RFC 2104), built on the from-scratch SHA-256.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key with both pad blocks already compressed: the two
/// chaining values are all the key material a tag needs, so a MAC over a short
/// message costs two compressions (inner tail, outer tail) instead of four.
/// 64 bytes, cheap to clone.
#[derive(Clone)]
pub struct HmacKey {
    /// SHA-256 state after the block `key ⊕ ipad`.
    inner: [u32; 8],
    /// SHA-256 state after the block `key ⊕ opad`.
    outer: [u32; 8],
}

impl HmacKey {
    /// Key the MAC with `key` (hashed first when longer than a block).
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let after_pad = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h.chaining_value()
        };
        HmacKey { inner: after_pad(0x36), outer: after_pad(0x5c) }
    }

    /// The tag of `msg` under this key.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut inner = Sha256::resume(self.inner, BLOCK as u64);
        inner.update(msg);
        let mut outer = Sha256::resume(self.outer, BLOCK as u64);
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// HMAC-SHA-256 of `msg` under `key`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 2104 as written — pads built and hashed per call — for the keyed
    /// implementation to be checked against.
    fn reference_hmac(key: &[u8], msg: &[u8]) -> [u8; 32] {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let inner = sha256(&[&key_block.map(|b| b ^ 0x36)[..], msg].concat());
        sha256(&[&key_block.map(|b| b ^ 0x5c)[..], &inner[..]].concat())
    }

    /// One RFC 4231 vector, through the keyed form and the one-shot form.
    fn check(key: &[u8], msg: &[u8], expect: &str) {
        assert_eq!(hex(&HmacKey::new(key).mac(msg)), expect);
        assert_eq!(hex(&hmac_sha256(key, msg)), expect);
    }

    #[test]
    fn rfc4231_case_1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_cases_3_and_4_fifty_byte_data() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
        let counting_key: Vec<u8> = (1..=25).collect();
        check(
            &counting_key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        check(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        check(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size \
              data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn keyed_mac_matches_the_reference_at_every_block_edge() {
        // Key lengths around the block size (longer keys are hashed first),
        // message lengths around the padding and block boundaries.
        for key_len in [0usize, 20, 32, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 7 + 3) as u8).collect();
            let keyed = HmacKey::new(&key);
            for msg_len in [0usize, 31, 32, 55, 56, 63, 64, 65, 200] {
                let msg: Vec<u8> = (0..msg_len).map(|i| (i * 13 + 1) as u8).collect();
                let expect = reference_hmac(&key, &msg);
                assert_eq!(keyed.mac(&msg), expect, "key {key_len} B, message {msg_len} B");
                assert_eq!(hmac_sha256(&key, &msg), expect, "key {key_len} B, message {msg_len} B");
            }
            // A key is reusable: a second tag does not depend on the first.
            assert_eq!(keyed.mac(b"again"), reference_hmac(&key, b"again"));
        }
    }

    #[test]
    fn different_keys_give_different_macs() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k1", b"msg1"), hmac_sha256(b"k1", b"msg2"));
    }
}

//! CRC-32 (IEEE 802.3), implemented in-repo to keep the workspace
//! hermetic.
//!
//! Every durable byte is covered by one:
//!
//! * **Batch-log records** — a torn tail (partial append at the crash
//!   point) must be distinguishable from a complete record, so every
//!   record carries a CRC over its payload.
//! * **Tier files** — every 4 KiB block of a segment, value run or
//!   symbol run has a CRC in the file's table; verification turns a
//!   torn sector into a hard [`crate::StorageError::Corrupt`] instead
//!   of a silently wrong query answer.
//! * **Manifest slots and the log header** — one CRC each.
//!
//! Standard reflected CRC-32 with polynomial `0xEDB88320` (the
//! zlib/Ethernet one), byte-at-a-time with a 256-entry table built at
//! compile time. Throughput is a non-issue here: table lookup runs at
//! roughly a byte per cycle — far below the cost of the `fsync` that
//! accompanies every durable write.

const TABLE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Continues a CRC-32 computation: `crc32_update(crc32(a), b)` equals
/// `crc32(a ++ b)`, so multi-part records hash without concatenation.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values (zlib, Ethernet, PNG).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn update_matches_concatenation() {
        let (a, b) = (&b"hello "[..], &b"world"[..]);
        let whole = crc32(b"hello world");
        assert_eq!(crc32_update(crc32(a), b), whole);
        // Splitting anywhere gives the same digest.
        let data = b"0123456789abcdef";
        for split in 0..=data.len() {
            assert_eq!(
                crc32_update(crc32(&data[..split]), &data[split..]),
                crc32(data)
            );
        }
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let mut page = vec![0xA5u8; 512];
        let clean = crc32(&page);
        for bit in [0usize, 7, 1000, 4095] {
            page[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&page), clean, "bit {bit}");
            page[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&page), clean);
    }
}

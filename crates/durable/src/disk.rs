//! Simulated append-only disk with explicit fsync barriers.
//!
//! The BatteryLab access server runs in a deterministic simulation, so
//! durability is modelled rather than delegated to the OS: a [`SimDisk`]
//! keeps two byte regions — the *durable* prefix (everything acknowledged
//! by an `fsync`) and the *unsynced tail* (written but not yet flushed).
//! A crash drops the unsynced tail, except for an optional torn prefix of
//! it that made it to the platter before power was lost. Reopening the
//! disk after a crash therefore sees exactly the bytes a real
//! write-ahead log would see: every synced frame, plus possibly a torn
//! partial frame that the log layer must detect and truncate.

/// An append-only simulated disk with fsync semantics.
#[derive(Debug, Default, Clone)]
pub struct SimDisk {
    durable: Vec<u8>,
    tail: Vec<u8>,
    writes: u64,
    syncs: u64,
}

impl SimDisk {
    /// Create an empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes to the unsynced tail.
    pub fn write(&mut self, bytes: &[u8]) {
        self.tail.extend_from_slice(bytes);
        self.writes += 1;
    }

    /// Flush the unsynced tail into the durable region.
    pub fn fsync(&mut self) {
        self.durable.append(&mut self.tail);
        self.syncs += 1;
    }

    /// Simulate a power loss: the unsynced tail is lost, except for the
    /// first `torn_keep` bytes of it which happened to reach the platter
    /// (a torn write). Returns the number of bytes discarded.
    pub fn crash(&mut self, torn_keep: usize) -> usize {
        let keep = torn_keep.min(self.tail.len());
        let lost = self.tail.len() - keep;
        self.durable.extend_from_slice(&self.tail[..keep]);
        self.tail.clear();
        lost
    }

    /// The bytes that would survive a crash right now.
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }

    /// Total bytes written including the unsynced tail.
    pub fn len(&self) -> usize {
        self.durable.len() + self.tail.len()
    }

    /// Whether nothing has been written at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes sitting in the unsynced tail.
    pub fn unsynced_len(&self) -> usize {
        self.tail.len()
    }

    /// Number of write calls.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of fsync barriers issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Truncate the durable region to `len` bytes (used by the log layer
    /// to discard a torn tail discovered on reopen).
    pub fn truncate_durable(&mut self, len: usize) {
        self.durable.truncate(len);
    }
}

/// Reflected CRC-32/IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic bytewise
/// table, and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, so eight input bytes fold in with eight lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Implemented locally so the durability layer carries no external
/// dependency. Slice-by-8: WAL records reach ~100 KB, and every append,
/// replay and checkpoint seal checksums its whole payload.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_moves_tail_to_durable() {
        let mut disk = SimDisk::new();
        disk.write(b"abc");
        assert_eq!(disk.durable_bytes(), b"");
        disk.fsync();
        assert_eq!(disk.durable_bytes(), b"abc");
        assert_eq!(disk.syncs(), 1);
    }

    #[test]
    fn crash_drops_unsynced_tail_except_torn_prefix() {
        let mut disk = SimDisk::new();
        disk.write(b"abc");
        disk.fsync();
        disk.write(b"defgh");
        let lost = disk.crash(2);
        assert_eq!(lost, 3);
        assert_eq!(disk.durable_bytes(), b"abcde");
        assert_eq!(disk.unsynced_len(), 0);
    }

    /// The bit-at-a-time definition the table-driven `crc32` must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_bitwise_oracle_at_every_length() {
        // Seeded xorshift bytes; lengths 0..=1100 cover every remainder
        // of the 8-byte step many times over.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let bytes: Vec<u8> = (0..1100)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            let slice = &bytes[..len];
            assert_eq!(crc32(slice), crc32_bitwise(slice), "length {len}");
        }
    }
}

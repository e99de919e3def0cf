//! EPC-96 identifiers and the protocol-control word.

use crate::crc::crc16;
use rf_sim::tags::TagId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A 96-bit Electronic Product Code, the identifier a Gen2 tag backscatters
/// during inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Epc96([u8; 12]);

impl Epc96 {
    /// Company-prefix bytes used for tags minted from a [`TagId`] in this
    /// workspace (arbitrary but stable).
    const WORKSPACE_PREFIX: [u8; 4] = [0x30, 0x08, 0x33, 0xB2];

    /// Creates an EPC from raw bytes.
    pub fn from_bytes(bytes: [u8; 12]) -> Self {
        Self(bytes)
    }

    /// The raw 12 bytes.
    pub fn as_bytes(&self) -> &[u8; 12] {
        &self.0
    }

    /// Mints the workspace EPC for a simulated tag: a fixed header plus the
    /// tag id in the low 64 bits.
    ///
    /// ```
    /// use rfid_gen2::epc::Epc96;
    /// use rf_sim::tags::TagId;
    /// let epc = Epc96::for_tag(TagId(7));
    /// assert_eq!(Epc96::to_tag(&epc), Some(TagId(7)));
    /// ```
    pub fn for_tag(id: TagId) -> Self {
        let mut bytes = [0u8; 12];
        bytes[..4].copy_from_slice(&Self::WORKSPACE_PREFIX);
        bytes[4..].copy_from_slice(&id.0.to_be_bytes());
        Self(bytes)
    }

    /// Recovers the [`TagId`] from a workspace-minted EPC, or `None` if the
    /// prefix does not match.
    pub fn to_tag(&self) -> Option<TagId> {
        if self.0[..4] != Self::WORKSPACE_PREFIX {
            return None;
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&self.0[4..]);
        Some(TagId(u64::from_be_bytes(id)))
    }

    /// The protocol-control word a tag transmits ahead of its EPC: EPC
    /// length in words (6 for EPC-96) in the top 5 bits.
    pub fn pc_word(&self) -> u16 {
        6 << 11
    }

    /// The 24 lowercase hex digits of the EPC, as traces and checkpoints
    /// store it.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Parses exactly 24 hex digits (either case); `None` otherwise.
    pub fn from_hex(hex: &str) -> Option<Self> {
        if hex.len() != 24 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut bytes = [0u8; 12];
        for (b, pair) in bytes.iter_mut().zip(hex.as_bytes().chunks(2)) {
            *b = u8::from_str_radix(std::str::from_utf8(pair).ok()?, 16).ok()?;
        }
        Some(Self(bytes))
    }

    /// The CRC-16 a tag appends to `PC + EPC` in its reply.
    pub fn reply_crc(&self) -> u16 {
        let mut frame = Vec::with_capacity(14);
        frame.extend_from_slice(&self.pc_word().to_be_bytes());
        frame.extend_from_slice(&self.0);
        crc16(&frame)
    }
}

impl fmt::Display for Epc96 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.0.iter().enumerate() {
            if i > 0 && i % 2 == 0 {
                write!(f, "-")?;
            }
            write!(f, "{b:02X}")?;
        }
        Ok(())
    }
}

impl From<TagId> for Epc96 {
    fn from(id: TagId) -> Self {
        Epc96::for_tag(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mint_and_recover_round_trip() {
        for i in [0u64, 1, 24, 1000, u64::MAX] {
            let epc = Epc96::for_tag(TagId(i));
            assert_eq!(epc.to_tag(), Some(TagId(i)));
        }
    }

    #[test]
    fn foreign_epc_does_not_decode() {
        let epc = Epc96::from_bytes([0xAA; 12]);
        assert_eq!(epc.to_tag(), None);
    }

    #[test]
    fn distinct_tags_distinct_epcs() {
        let a = Epc96::for_tag(TagId(1));
        let b = Epc96::for_tag(TagId(2));
        assert_ne!(a, b);
    }

    #[test]
    fn pc_word_encodes_six_words() {
        let epc = Epc96::for_tag(TagId(0));
        assert_eq!(epc.pc_word() >> 11, 6);
    }

    #[test]
    fn reply_crc_changes_with_epc() {
        let a = Epc96::for_tag(TagId(1)).reply_crc();
        let b = Epc96::for_tag(TagId(2)).reply_crc();
        assert_ne!(a, b);
    }

    #[test]
    fn hex_round_trips_and_rejects_non_hex() {
        let epc = Epc96::for_tag(TagId(0xbeef));
        assert_eq!(Epc96::from_hex(&epc.to_hex()), Some(epc));
        assert_eq!(Epc96::from_hex(&epc.to_hex().to_uppercase()), Some(epc));
        assert_eq!(Epc96::from_hex(&epc.to_hex()[1..]), None);
        assert_eq!(Epc96::from_hex(&format!("+{}", &epc.to_hex()[1..])), None);
    }

    #[test]
    fn display_format() {
        let epc = Epc96::for_tag(TagId(0x0102));
        let s = epc.to_string();
        assert!(s.starts_with("3008-33B2"));
        assert!(s.ends_with("0102"));
    }
}

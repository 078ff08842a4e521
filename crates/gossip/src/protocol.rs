//! The bounded gossip/anti-entropy wire formats.
//!
//! The modeled cluster keeps a small replicated state table (key →
//! versioned status record) and reconciles it with three message kinds:
//!
//! * `SEED` — a peer pushes a state record it observed (`key`, `version`,
//!   `status`);
//! * `SYNC` — a peer asks the node to propagate its record for `key` to
//!   the rest of the cluster (the anti-entropy round);
//! * `READ` — a peer asks the node to resolve `key`'s status, which walks
//!   the two-entry status table.
//!
//! Correct peers validate the status byte to `{STATUS_DOWN, STATUS_UP}`
//! before seeding; the node's ingest validation does not (see
//! [`crate::engine`]), which is the Trojan window the whole crate exists
//! to model.

use std::sync::{Arc, OnceLock};

use achilles::{fields_to_wire, wire_to_fields, WireError};
use achilles_solver::Width;
use achilles_symvm::MessageLayout;

/// `kind` value of `SEED` messages (a peer pushes a state record).
pub const SEED_KIND: u64 = 1;

/// `kind` value of `SYNC` messages (anti-entropy propagation request).
pub const SYNC_KIND: u64 = 2;

/// `kind` value of `READ` messages (status resolution request).
pub const READ_KIND: u64 = 3;

/// A record's "node is down" status.
pub const STATUS_DOWN: u64 = 0;

/// A record's "node is up" status.
pub const STATUS_UP: u64 = 1;

/// Keys the state table tracks (`key < N_KEYS`).
pub const N_KEYS: u64 = 4;

/// Record versions correct peers hand out (`version < MAX_VERSION`).
pub const MAX_VERSION: u64 = 8;

/// Peers a `SYNC` round propagates a record to (effect bookkeeping only).
pub const N_PEERS: u64 = 5;

/// The `SEED` message layout.
pub fn seed_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("gossip_seed")
            .field("kind", Width::W8)
            .field("key", Width::W8)
            .field("version", Width::W16)
            .field("status", Width::W8)
            .build()
    }))
}

/// The `SYNC` message layout (slot 1 of the seed→sync→read session).
pub fn sync_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("gossip_sync")
            .field("kind", Width::W8)
            .field("key", Width::W8)
            .build()
    }))
}

/// The `READ` message layout (slot 2 of the seed→sync→read session).
pub fn read_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("gossip_read")
            .field("kind", Width::W8)
            .field("key", Width::W8)
            .build()
    }))
}

/// One concrete `SEED` message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipSeed {
    /// Message kind ([`SEED_KIND`] for real seeds).
    pub kind: u8,
    /// State-table key.
    pub key: u8,
    /// Record version (last-writer-wins).
    pub version: u16,
    /// The status byte (correct peers send only 0 or 1).
    pub status: u8,
}

impl GossipSeed {
    /// A seed a correct peer would send.
    pub fn correct(key: u8, version: u16, up: bool) -> GossipSeed {
        GossipSeed {
            kind: SEED_KIND as u8,
            key,
            version,
            status: if up { STATUS_UP } else { STATUS_DOWN } as u8,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![
            u64::from(self.kind),
            u64::from(self.key),
            u64::from(self.version),
            u64::from(self.status),
        ]
    }

    /// Rebuilds a seed from layout-ordered field values (truncated to
    /// their wire widths, like the real parser would).
    pub fn from_field_values(fields: &[u64]) -> GossipSeed {
        GossipSeed {
            kind: fields.first().copied().unwrap_or(0) as u8,
            key: fields.get(1).copied().unwrap_or(0) as u8,
            version: fields.get(2).copied().unwrap_or(0) as u16,
            status: fields.get(3).copied().unwrap_or(0) as u8,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&seed_layout(), &self.field_values())
            .expect("the seed layout is byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<GossipSeed, WireError> {
        Ok(GossipSeed::from_field_values(&wire_to_fields(
            &seed_layout(),
            wire,
        )?))
    }
}

/// One concrete two-field request (`SYNC` or `READ` — the layouts share a
/// shape and differ only in the kind byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GossipRequest {
    /// Message kind ([`SYNC_KIND`] or [`READ_KIND`]).
    pub kind: u8,
    /// State-table key.
    pub key: u8,
}

impl GossipRequest {
    /// A propagation request a correct peer would send.
    pub fn sync(key: u8) -> GossipRequest {
        GossipRequest {
            kind: SYNC_KIND as u8,
            key,
        }
    }

    /// A status-resolution request a correct peer would send.
    pub fn read(key: u8) -> GossipRequest {
        GossipRequest {
            kind: READ_KIND as u8,
            key,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![u64::from(self.kind), u64::from(self.key)]
    }

    /// Rebuilds a request from layout-ordered field values.
    pub fn from_field_values(fields: &[u64]) -> GossipRequest {
        GossipRequest {
            kind: fields.first().copied().unwrap_or(0) as u8,
            key: fields.get(1).copied().unwrap_or(0) as u8,
        }
    }

    /// Encodes to wire bytes (the sync and read layouts pack identically).
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&sync_layout(), &self.field_values())
            .expect("the request layouts are byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<GossipRequest, WireError> {
        Ok(GossipRequest::from_field_values(&wire_to_fields(
            &sync_layout(),
            wire,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_wire_round_trip() {
        let s = GossipSeed::correct(3, 5, true);
        assert_eq!(GossipSeed::from_wire(&s.to_wire()).unwrap(), s);
        assert_eq!(s.to_wire(), vec![1, 3, 0, 5, 1]);
    }

    #[test]
    fn request_wire_round_trip() {
        let q = GossipRequest::sync(2);
        assert_eq!(GossipRequest::from_wire(&q.to_wire()).unwrap(), q);
        assert_eq!(q.to_wire(), vec![2, 2]);
        assert_eq!(GossipRequest::read(2).to_wire(), vec![3, 2]);
    }

    #[test]
    fn field_round_trip_truncates_to_wire_widths() {
        let s = GossipSeed {
            kind: 1,
            key: 2,
            version: 7,
            status: 0x77,
        };
        assert_eq!(GossipSeed::from_field_values(&s.field_values()), s);
    }
}

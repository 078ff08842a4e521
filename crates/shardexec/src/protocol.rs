//! The sharded-executor wire formats.
//!
//! The modeled cluster is three shards replicating a small key table.
//! Three message kinds cross the fabric:
//!
//! * `WRITE` — a cross-shard state-write broadcast carrying the
//!   originating shard's identity in the `sender` field;
//! * `SYNC` — an anti-entropy comparison round for one key;
//! * `READ` — a client-facing resolution of one key across the shards.
//!
//! The protocol invariant correct nodes obey: a shard only originates
//! writes for the keys it owns (`sender == owner(key)`, and with one key
//! per shard, `owner(key) == key`). The vulnerable ingress never checks
//! it — the sender-identity window the whole crate exists to model (see
//! [`crate::engine`]).

use std::sync::{Arc, OnceLock};

use achilles::{fields_to_wire, wire_to_fields, WireError};
use achilles_solver::Width;
use achilles_symvm::MessageLayout;

/// `kind` value of `WRITE` messages (cross-shard state-write broadcast).
pub const WRITE_KIND: u64 = 1;

/// `kind` value of `SYNC` messages (anti-entropy comparison round).
pub const SYNC_KIND: u64 = 2;

/// `kind` value of `READ` messages (cross-shard resolution request).
pub const READ_KIND: u64 = 3;

/// Shards in the cluster (`sender < N_SHARDS`).
pub const N_SHARDS: u64 = 3;

/// Keys the replicated table tracks — one per shard, and a shard owns
/// exactly the key with its own id (`owner(key) == key`).
pub const N_KEYS: u64 = N_SHARDS;

/// Write values correct shards commit (`1 <= value < MAX_VALUE`; zero is
/// the "absent" marker and never travels in a correct write).
pub const MAX_VALUE: u64 = 256;

/// The `WRITE` message layout (slot 0 of the write→sync→read session).
pub fn write_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("shardexec_write")
            .field("kind", Width::W8)
            .field("sender", Width::W8)
            .field("key", Width::W8)
            .field("value", Width::W16)
            .build()
    }))
}

/// The `SYNC` message layout (slot 1).
pub fn sync_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("shardexec_sync")
            .field("kind", Width::W8)
            .field("sender", Width::W8)
            .field("key", Width::W8)
            .build()
    }))
}

/// The `READ` message layout (slot 2).
pub fn read_layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("shardexec_read")
            .field("kind", Width::W8)
            .field("key", Width::W8)
            .build()
    }))
}

/// One concrete `WRITE` broadcast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardWrite {
    /// Message kind ([`WRITE_KIND`] for real writes).
    pub kind: u8,
    /// The shard claiming to have originated the write.
    pub sender: u8,
    /// Table key being written.
    pub key: u8,
    /// The committed value (correct shards send `1..MAX_VALUE`).
    pub value: u16,
}

impl ShardWrite {
    /// The write shard `shard` would broadcast for its own key.
    pub fn correct(shard: u8, value: u16) -> ShardWrite {
        ShardWrite {
            kind: WRITE_KIND as u8,
            sender: shard,
            key: shard,
            value,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![
            u64::from(self.kind),
            u64::from(self.sender),
            u64::from(self.key),
            u64::from(self.value),
        ]
    }

    /// Rebuilds a write from layout-ordered field values (truncated to
    /// their wire widths, like the real parser would).
    pub fn from_field_values(fields: &[u64]) -> ShardWrite {
        ShardWrite {
            kind: fields.first().copied().unwrap_or(0) as u8,
            sender: fields.get(1).copied().unwrap_or(0) as u8,
            key: fields.get(2).copied().unwrap_or(0) as u8,
            value: fields.get(3).copied().unwrap_or(0) as u16,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&write_layout(), &self.field_values())
            .expect("the write layout is byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<ShardWrite, WireError> {
        Ok(ShardWrite::from_field_values(&wire_to_fields(
            &write_layout(),
            wire,
        )?))
    }
}

/// One concrete `SYNC` round request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSync {
    /// Message kind ([`SYNC_KIND`]).
    pub kind: u8,
    /// The shard initiating the round.
    pub sender: u8,
    /// Table key compared across the shards.
    pub key: u8,
}

impl ShardSync {
    /// The round shard `sender` would initiate for `key`.
    pub fn correct(sender: u8, key: u8) -> ShardSync {
        ShardSync {
            kind: SYNC_KIND as u8,
            sender,
            key,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![
            u64::from(self.kind),
            u64::from(self.sender),
            u64::from(self.key),
        ]
    }

    /// Rebuilds a sync from layout-ordered field values.
    pub fn from_field_values(fields: &[u64]) -> ShardSync {
        ShardSync {
            kind: fields.first().copied().unwrap_or(0) as u8,
            sender: fields.get(1).copied().unwrap_or(0) as u8,
            key: fields.get(2).copied().unwrap_or(0) as u8,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&sync_layout(), &self.field_values())
            .expect("the sync layout is byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<ShardSync, WireError> {
        Ok(ShardSync::from_field_values(&wire_to_fields(
            &sync_layout(),
            wire,
        )?))
    }
}

/// One concrete `READ` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardRead {
    /// Message kind ([`READ_KIND`]).
    pub kind: u8,
    /// Table key resolved across the shards.
    pub key: u8,
}

impl ShardRead {
    /// The read a correct client would send for `key`.
    pub fn correct(key: u8) -> ShardRead {
        ShardRead {
            kind: READ_KIND as u8,
            key,
        }
    }

    /// Layout-ordered field values.
    pub fn field_values(&self) -> Vec<u64> {
        vec![u64::from(self.kind), u64::from(self.key)]
    }

    /// Rebuilds a read from layout-ordered field values.
    pub fn from_field_values(fields: &[u64]) -> ShardRead {
        ShardRead {
            kind: fields.first().copied().unwrap_or(0) as u8,
            key: fields.get(1).copied().unwrap_or(0) as u8,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        fields_to_wire(&read_layout(), &self.field_values())
            .expect("the read layout is byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated buffers.
    pub fn from_wire(wire: &[u8]) -> Result<ShardRead, WireError> {
        Ok(ShardRead::from_field_values(&wire_to_fields(
            &read_layout(),
            wire,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_wire_round_trip() {
        let w = ShardWrite::correct(2, 0x1234);
        assert_eq!(ShardWrite::from_wire(&w.to_wire()).unwrap(), w);
        assert_eq!(w.to_wire(), vec![1, 2, 2, 0x12, 0x34]);
    }

    #[test]
    fn sync_and_read_wire_round_trip() {
        let s = ShardSync::correct(1, 2);
        assert_eq!(ShardSync::from_wire(&s.to_wire()).unwrap(), s);
        assert_eq!(s.to_wire(), vec![2, 1, 2]);
        let r = ShardRead::correct(0);
        assert_eq!(ShardRead::from_wire(&r.to_wire()).unwrap(), r);
        assert_eq!(r.to_wire(), vec![3, 0]);
    }

    #[test]
    fn field_round_trip_truncates_to_wire_widths() {
        let w = ShardWrite {
            kind: 1,
            sender: 7,
            key: 2,
            value: 0xbeef,
        };
        assert_eq!(ShardWrite::from_field_values(&w.field_values()), w);
    }
}

//! The PBFT client-request wire format (bounded model).
//!
//! A client request carries (§6.1 of the paper):
//!
//! | field          | width | meaning                                |
//! |----------------|-------|----------------------------------------|
//! | `tag`          | 2 B   | message type                           |
//! | `extra`        | 2 B   | flags (bit 0 = read-only)              |
//! | `size`         | 4 B   | total message length                   |
//! | `od`           | 8 B   | request digest (paper: 16 B, bypassed) |
//! | `replier`      | 2 B   | replica designated to send the reply   |
//! | `command_size` | 2 B   | command length                         |
//! | `cid`          | 2 B   | client id                              |
//! | `rid`          | 2 B   | request id                             |
//! | `command`      | fix.  | command payload ([`COMMAND_LEN`] B)    |
//! | `mac[r]`       | 4 B   | authenticator for each replica         |
//!
//! The digest and MAC fields are bypassed with predefined constants during
//! the symbolic analysis (the paper's annotation approximation); the
//! concrete cluster simulation uses the real toy MAC from [`crate::mac`].

use std::sync::{Arc, OnceLock};

use achilles_netsim::bytes::{decode_fields, encode_fields, WireError};
use achilles_solver::{TermPool, Width};
use achilles_symvm::{MessageLayout, SymMessage};

use crate::mac::{authenticator, N_REPLICAS};

/// Tag value of client request messages.
pub const REQUEST_TAG: u64 = 1;
/// Fixed command payload length (paper: "we set a fixed length for the
/// command").
pub const COMMAND_LEN: usize = 4;
/// Fixed total message size implied by the bounded layout, in bytes.
pub const MESSAGE_SIZE: u64 =
    (2 + 2 + 4 + 8 + 2 + 2 + 2 + 2) + COMMAND_LEN as u64 + 4 * N_REPLICAS as u64;
/// The predefined constant replacing the digest during analysis.
pub const DIGEST_PLACEHOLDER: u64 = 0;
/// The predefined constant replacing each authenticator during analysis.
pub const MAC_PLACEHOLDER: u64 = 0;

/// Field widths in declaration order (wire codec).
pub const FIELD_WIDTHS: [u32; 8 + COMMAND_LEN + N_REPLICAS] = {
    let mut w = [8u32; 8 + COMMAND_LEN + N_REPLICAS];
    w[0] = 16; // tag
    w[1] = 16; // extra
    w[2] = 32; // size
    w[3] = 64; // od
    w[4] = 16; // replier
    w[5] = 16; // command_size
    w[6] = 16; // cid
    w[7] = 16; // rid
               // command bytes stay 8
    let mut i = 8 + COMMAND_LEN;
    while i < 8 + COMMAND_LEN + N_REPLICAS {
        w[i] = 32; // mac[r]
        i += 1;
    }
    w
};

/// Index of the first command byte.
pub const COMMAND_BASE: usize = 8;
/// Index of the first MAC field.
pub const MAC_BASE: usize = 8 + COMMAND_LEN;

/// The bounded request layout.
pub fn layout() -> Arc<MessageLayout> {
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        let mut b = MessageLayout::builder("pbft_req")
            .field("tag", Width::W16)
            .field("extra", Width::W16)
            .field("size", Width::W32)
            .field("od", Width::W64)
            .field("replier", Width::W16)
            .field("command_size", Width::W16)
            .field("cid", Width::W16)
            .field("rid", Width::W16)
            .byte_array("command", COMMAND_LEN);
        for r in 0..N_REPLICAS {
            b = b.field(&format!("mac[{r}]"), Width::W32);
        }
        b.build()
    }))
}

/// A concrete PBFT client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PbftRequest {
    /// Message type tag.
    pub tag: u16,
    /// Flags (bit 0 = read-only).
    pub extra: u16,
    /// Total message size.
    pub size: u32,
    /// Request digest.
    pub od: u64,
    /// Designated replier replica.
    pub replier: u16,
    /// Command length.
    pub command_size: u16,
    /// Client id.
    pub cid: u16,
    /// Request id.
    pub rid: u16,
    /// Command payload.
    pub command: [u8; COMMAND_LEN],
    /// Per-replica authenticators.
    pub macs: [u32; N_REPLICAS],
}

impl PbftRequest {
    /// A well-formed request as a correct client builds it (real MACs).
    pub fn correct(cid: u16, rid: u16, command: [u8; COMMAND_LEN]) -> PbftRequest {
        PbftRequest {
            tag: REQUEST_TAG as u16,
            extra: 0,
            size: MESSAGE_SIZE as u32,
            od: crate::mac::digest(&command),
            replier: 0,
            command_size: COMMAND_LEN as u16,
            cid,
            rid,
            command,
            macs: authenticator(u64::from(cid), u64::from(rid), &command),
        }
    }

    /// The same request with one authenticator corrupted — the MAC-attack
    /// Trojan message (§6.3).
    pub fn with_corrupted_mac(mut self, replica: usize) -> PbftRequest {
        self.macs[replica] ^= 0xDEAD_BEEF;
        self
    }

    /// Field values in layout order.
    pub fn field_values(&self) -> Vec<u64> {
        let mut v = vec![
            u64::from(self.tag),
            u64::from(self.extra),
            u64::from(self.size),
            self.od,
            u64::from(self.replier),
            u64::from(self.command_size),
            u64::from(self.cid),
            u64::from(self.rid),
        ];
        v.extend(self.command.iter().map(|&b| u64::from(b)));
        v.extend(self.macs.iter().map(|&m| u64::from(m)));
        v
    }

    /// Builds a request from layout-ordered field values.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity.
    pub fn from_field_values(values: &[u64]) -> PbftRequest {
        assert_eq!(values.len(), 8 + COMMAND_LEN + N_REPLICAS);
        let mut command = [0u8; COMMAND_LEN];
        for (i, b) in command.iter_mut().enumerate() {
            *b = values[COMMAND_BASE + i] as u8;
        }
        let mut macs = [0u32; N_REPLICAS];
        for (i, m) in macs.iter_mut().enumerate() {
            *m = values[MAC_BASE + i] as u32;
        }
        PbftRequest {
            tag: values[0] as u16,
            extra: values[1] as u16,
            size: values[2] as u32,
            od: values[3],
            replier: values[4] as u16,
            command_size: values[5] as u16,
            cid: values[6] as u16,
            rid: values[7] as u16,
            command,
            macs,
        }
    }

    /// Encodes to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let fields: Vec<(u32, u64)> = FIELD_WIDTHS
            .iter()
            .copied()
            .zip(self.field_values())
            .collect();
        encode_fields(&fields).expect("static widths are byte-aligned")
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the buffer is too short.
    pub fn from_wire(wire: &[u8]) -> Result<PbftRequest, WireError> {
        let values = decode_fields(wire, &FIELD_WIDTHS)?;
        Ok(PbftRequest::from_field_values(&values))
    }

    /// The request as a concrete [`SymMessage`].
    pub fn to_sym(&self, pool: &mut TermPool) -> SymMessage {
        SymMessage::concrete(pool, &layout(), &self.field_values())
    }

    /// Whether replica `r`'s authenticator verifies.
    pub fn mac_valid_for(&self, replica: usize) -> bool {
        let expect = authenticator(u64::from(self.cid), u64::from(self.rid), &self.command);
        self.macs[replica] == expect[replica]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_arity_matches_struct() {
        let l = layout();
        assert_eq!(l.num_fields(), 8 + COMMAND_LEN + N_REPLICAS);
        assert_eq!(l.field_index("mac[0]"), Some(MAC_BASE));
        assert_eq!(l.field_index("command[0]"), Some(COMMAND_BASE));
    }

    #[test]
    fn wire_round_trip() {
        let req = PbftRequest::correct(3, 17, *b"incr");
        let back = PbftRequest::from_wire(&req.to_wire()).unwrap();
        assert_eq!(back, req);
        assert_eq!(req.to_wire().len() as u64, MESSAGE_SIZE);
    }

    #[test]
    fn correct_requests_verify_everywhere() {
        let req = PbftRequest::correct(2, 9, *b"op!!");
        for r in 0..N_REPLICAS {
            assert!(req.mac_valid_for(r));
        }
    }

    #[test]
    fn corrupted_mac_fails_only_that_replica() {
        let req = PbftRequest::correct(2, 9, *b"op!!").with_corrupted_mac(2);
        for r in 0..N_REPLICAS {
            assert_eq!(req.mac_valid_for(r), r != 2);
        }
    }

    #[test]
    fn sym_round_trip() {
        let mut pool = TermPool::new();
        let req = PbftRequest::correct(1, 1, *b"noop");
        let sym = req.to_sym(&mut pool);
        assert!(sym.is_concrete(&pool));
        let vals = sym.concretize(&pool, &achilles_solver::Model::new());
        assert_eq!(PbftRequest::from_field_values(&vals), req);
    }
}

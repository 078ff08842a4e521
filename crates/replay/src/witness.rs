//! Witness concretization: solver output → injectable wire bytes.
//!
//! The symbolic phases end with a [`TrojanReport`] whose witness is a
//! vector of concrete field values (the solver model evaluated over the
//! server message). Replay needs the *wire form*: the exact byte string a
//! malicious sender would put on the network. This module bridges the two
//! through [`achilles_netsim::bytes`], the same codec the concrete
//! deployments parse with, so an encode → inject → decode round trip
//! exercises the identical framing code as real traffic.

use std::sync::Arc;

use achilles::{TrojanReport, WireError};
use achilles_symvm::MessageLayout;

pub use achilles::target::{fields_to_wire, layout_widths, wire_to_fields};

/// A fully concretized witness: one wire buffer per session slot, ready
/// for in-order injection (a single-message witness has one slot).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionWitness {
    /// Index of the originating report in discovery order.
    pub index: usize,
    /// Id of the accepting session server path the witness was found on.
    pub server_path_id: usize,
    /// Per-slot concrete field values, in slot order.
    pub fields: Vec<Vec<u64>>,
    /// Per-slot big-endian wire encodings of `fields`.
    pub wire: Vec<Vec<u8>>,
}

impl SessionWitness {
    /// Number of session slots.
    pub fn slots(&self) -> usize {
        self.fields.len()
    }

    /// The concatenated field values (the flat form reports and the corpus
    /// use).
    pub fn flattened_fields(&self) -> Vec<u64> {
        self.fields.iter().flatten().copied().collect()
    }
}

/// Concretizes a Trojan report — whose `witness_fields` carry the whole
/// session, slot fields concatenated in slot order — into per-slot
/// injectable wire buffers (one layout, one slot, for a single-message
/// report).
///
/// # Errors
///
/// Returns a [`WireError`] if any slot layout cannot be wire-encoded.
///
/// # Panics
///
/// Panics if the report's arity does not match the slot layouts.
pub fn session_from_report(
    layouts: &[Arc<MessageLayout>],
    index: usize,
    report: &TrojanReport,
) -> Result<SessionWitness, WireError> {
    let counts: Vec<usize> = layouts.iter().map(|l| l.num_fields()).collect();
    let fields = achilles::export::split_fields_by_counts(&report.witness_fields, &counts);
    let wire = fields
        .iter()
        .zip(layouts)
        .map(|(slot, layout)| fields_to_wire(layout, slot))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(SessionWitness {
        index,
        server_path_id: report.server_path_id,
        fields,
        wire,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use achilles_solver::Width;

    fn layout() -> Arc<MessageLayout> {
        MessageLayout::builder("m")
            .field("op", Width::W8)
            .field("key", Width::W16)
            .build()
    }

    #[test]
    fn wire_round_trip() {
        let l = layout();
        let fields = vec![0x41, 0x1234];
        let wire = fields_to_wire(&l, &fields).unwrap();
        assert_eq!(wire, vec![0x41, 0x12, 0x34]);
        assert_eq!(wire_to_fields(&l, &wire).unwrap(), fields);
    }

    #[test]
    fn report_concretization_carries_provenance() {
        let l = layout();
        let report = TrojanReport {
            server_path_id: 7,
            constraints: vec![],
            witness_fields: vec![1, 2000],
            active_clients: 0,
            verified: true,
            found_at: std::time::Duration::ZERO,
            notes: vec![],
        };
        let w = session_from_report(&[l], 3, &report).unwrap();
        assert_eq!(w.index, 3);
        assert_eq!(w.server_path_id, 7);
        assert_eq!(w.fields, vec![vec![1, 2000]]);
        assert_eq!(w.wire, vec![vec![1, 0x07, 0xD0]]);
    }

    #[test]
    fn sub_byte_layouts_are_rejected() {
        let l = MessageLayout::builder("b")
            .field("flag", Width::BOOL)
            .build();
        assert!(fields_to_wire(&l, &[1]).is_err());
    }
}

//! The FSP wire protocol (bounded model).
//!
//! FSP (File Service Protocol) is a UDP-based file transfer protocol; the
//! paper analyzes FSP 2.8.1b26. A command message carries (§6.1):
//!
//! | field    | width | meaning                              |
//! |----------|-------|--------------------------------------|
//! | `cmd`    | 1 B   | requested action                     |
//! | `sum`    | 1 B   | checksum                             |
//! | `bb_key` | 2 B   | message key                          |
//! | `bb_seq` | 2 B   | message sequence number              |
//! | `bb_len` | 2 B   | length of the file path              |
//! | `bb_pos` | 4 B   | position of a block in a file        |
//! | `buf`    | var.  | payload (file path + file data)      |
//!
//! Following the paper's §6.2 bounds, the payload is modeled as
//! [`MAX_PATH`] one-byte fields and path lengths are restricted to
//! `1..=MAX_PATH`. The checksum/key/seq/pos fields are *bypassed* the way
//! the paper's annotations bypass them: correct clients write the
//! predefined constant [`BYPASS_VALUE`] and the server checks for it.

use std::sync::{Arc, OnceLock};

use achilles_netsim::bytes::{decode_fields, encode_fields, WireError};
use achilles_solver::{TermPool, Width};
use achilles_symvm::{MessageLayout, SymMessage};

/// Maximum file path length, matching the paper's bound ("we restricted the
/// FSP clients and servers to only handle file paths with length less
/// than 5").
pub const MAX_PATH: usize = 4;

/// The constant that replaces checksums/keys/sequence numbers/positions
/// (paper §6.1: "the client writes a predefined constant value and the
/// server checks that value").
pub const BYPASS_VALUE: u64 = 0;

/// Smallest byte the server accepts in file paths (printable ASCII, §6.2).
pub const PRINTABLE_MIN: u8 = 33;
/// Largest byte the server accepts in file paths.
pub const PRINTABLE_MAX: u8 = 126;
/// The wildcard character at the heart of the FSP globbing Trojan.
pub const WILDCARD: u8 = b'*';

/// FSP command codes (the single-file-path subset the paper's eight client
/// utilities exercise, plus `Install` used by the impact demo).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Command {
    /// List a directory (`fls`).
    GetDir = 0x41,
    /// Download a file (`fget`).
    GetFile = 0x42,
    /// Delete a file (`frm`).
    DelFile = 0x44,
    /// Delete a directory (`frmdir`).
    DelDir = 0x45,
    /// Create a directory (`fmkdir`).
    MakeDir = 0x47,
    /// Read directory protection bits (`fgetpro`).
    GetPro = 0x4b,
    /// Set directory protection bits (`fsetpro`).
    SetPro = 0x4c,
    /// Stat a path (`fstat`).
    Stat = 0x4d,
    /// Create/overwrite a file (`finstall`) — used by the concrete impact
    /// demo, not part of the eight-utility analysis set.
    Install = 0x49,
}

impl Command {
    /// The eight single-file-path commands of the accuracy evaluation.
    pub const ANALYSIS_SET: [Command; 8] = [
        Command::GetDir,
        Command::GetFile,
        Command::DelFile,
        Command::DelDir,
        Command::MakeDir,
        Command::GetPro,
        Command::SetPro,
        Command::Stat,
    ];

    /// The command code byte.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses a command code.
    pub fn from_code(code: u8) -> Option<Command> {
        Command::ANALYSIS_SET
            .into_iter()
            .chain([Command::Install])
            .find(|c| c.code() == code)
    }

    /// The UNIX-style client utility name that issues this command.
    pub fn utility_name(self) -> &'static str {
        match self {
            Command::GetDir => "fls",
            Command::GetFile => "fget",
            Command::DelFile => "frm",
            Command::DelDir => "frmdir",
            Command::MakeDir => "fmkdir",
            Command::GetPro => "fgetpro",
            Command::SetPro => "fsetpro",
            Command::Stat => "fstat",
            Command::Install => "finstall",
        }
    }
}

/// Field widths, in declaration order (used by the wire codec).
pub const FIELD_WIDTHS: [u32; 6 + MAX_PATH] = {
    let mut w = [8u32; 6 + MAX_PATH];
    w[0] = 8; // cmd
    w[1] = 8; // sum
    w[2] = 16; // bb_key
    w[3] = 16; // bb_seq
    w[4] = 16; // bb_len
    w[5] = 32; // bb_pos
               // buf bytes stay 8.
    w
};

/// The bounded FSP message layout.
pub fn layout() -> Arc<MessageLayout> {
    // Built once, like every registry layout: immutable, and replay asks for it per delivery.
    static LAYOUT: OnceLock<Arc<MessageLayout>> = OnceLock::new();
    Arc::clone(LAYOUT.get_or_init(|| {
        MessageLayout::builder("fsp")
            .field("cmd", Width::W8)
            .field("sum", Width::W8)
            .field("bb_key", Width::W16)
            .field("bb_seq", Width::W16)
            .field("bb_len", Width::W16)
            .field("bb_pos", Width::W32)
            .byte_array("buf", MAX_PATH)
            .build()
    }))
}

/// Index of the first payload byte within the layout.
pub const BUF_BASE: usize = 6;

/// A concrete FSP message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FspMessage {
    /// Command code.
    pub cmd: u8,
    /// Checksum (bypassed: [`BYPASS_VALUE`] for correct traffic).
    pub sum: u8,
    /// Message key (bypassed).
    pub bb_key: u16,
    /// Sequence number (bypassed).
    pub bb_seq: u16,
    /// Reported file path length.
    pub bb_len: u16,
    /// Block position (bypassed).
    pub bb_pos: u32,
    /// Payload bytes.
    pub buf: [u8; MAX_PATH],
}

impl FspMessage {
    /// A well-formed command for `path` as a correct client would build it.
    ///
    /// # Panics
    ///
    /// Panics if `path` is longer than [`MAX_PATH`].
    pub fn request(cmd: Command, path: &[u8]) -> FspMessage {
        assert!(
            path.len() <= MAX_PATH,
            "path longer than the protocol bound"
        );
        let mut buf = [0u8; MAX_PATH];
        buf[..path.len()].copy_from_slice(path);
        FspMessage {
            cmd: cmd.code(),
            sum: BYPASS_VALUE as u8,
            bb_key: BYPASS_VALUE as u16,
            bb_seq: BYPASS_VALUE as u16,
            bb_len: path.len() as u16,
            bb_pos: BYPASS_VALUE as u32,
            buf,
        }
    }

    /// Field values in layout order.
    pub fn field_values(&self) -> Vec<u64> {
        let mut v = vec![
            u64::from(self.cmd),
            u64::from(self.sum),
            u64::from(self.bb_key),
            u64::from(self.bb_seq),
            u64::from(self.bb_len),
            u64::from(self.bb_pos),
        ];
        v.extend(self.buf.iter().map(|&b| u64::from(b)));
        v
    }

    /// Builds a concrete message from layout-ordered field values.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong arity.
    pub fn from_field_values(values: &[u64]) -> FspMessage {
        assert_eq!(values.len(), 6 + MAX_PATH);
        let mut buf = [0u8; MAX_PATH];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = values[BUF_BASE + i] as u8;
        }
        FspMessage {
            cmd: values[0] as u8,
            sum: values[1] as u8,
            bb_key: values[2] as u16,
            bb_seq: values[3] as u16,
            bb_len: values[4] as u16,
            bb_pos: values[5] as u32,
            buf,
        }
    }

    /// Encodes to wire bytes (big-endian fields).
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
    pub fn from_wire(wire: &[u8]) -> Result<FspMessage, WireError> {
        let values = decode_fields(wire, &FIELD_WIDTHS)?;
        Ok(FspMessage::from_field_values(&values))
    }

    /// The message as a concrete [`SymMessage`] (for injection into the
    /// symbolic runtime).
    pub fn to_sym(&self, pool: &mut TermPool) -> SymMessage {
        SymMessage::concrete(pool, &layout(), &self.field_values())
    }

    /// The file path carried by the message, honouring `bb_len` but stopping
    /// at an embedded NUL (the *server's* — buggy — interpretation).
    pub fn path_as_server_sees_it(&self) -> &[u8] {
        let reported = (self.bb_len as usize).min(MAX_PATH);
        let actual = self.buf[..reported]
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(reported);
        &self.buf[..actual]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_has_expected_shape() {
        let l = layout();
        assert_eq!(l.num_fields(), 6 + MAX_PATH);
        assert_eq!(l.field_index("cmd"), Some(0));
        assert_eq!(l.field_index("buf[0]"), Some(BUF_BASE));
        assert_eq!(
            l.total_bits() as usize,
            8 + 8 + 16 + 16 + 16 + 32 + 8 * MAX_PATH
        );
    }

    #[test]
    fn command_codes_round_trip() {
        for c in Command::ANALYSIS_SET.into_iter().chain([Command::Install]) {
            assert_eq!(Command::from_code(c.code()), Some(c));
        }
        assert_eq!(Command::from_code(0xFF), None);
        assert_eq!(Command::DelFile.utility_name(), "frm");
    }

    #[test]
    fn wire_round_trip() {
        let msg = FspMessage::request(Command::DelFile, b"abc");
        let wire = msg.to_wire();
        assert_eq!(wire.len(), 1 + 1 + 2 + 2 + 2 + 4 + MAX_PATH);
        let back = FspMessage::from_wire(&wire).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn request_sets_consistent_length() {
        let msg = FspMessage::request(Command::Stat, b"ab");
        assert_eq!(msg.bb_len, 2);
        assert_eq!(msg.path_as_server_sees_it(), b"ab");
    }

    #[test]
    fn mismatched_length_truncates_at_nul() {
        // A Trojan message: reported length 4 but a NUL at position 1.
        let mut msg = FspMessage::request(Command::DelFile, b"a");
        msg.bb_len = 4;
        msg.buf = [b'a', 0, b'X', b'Y']; // 'X','Y' are smuggled payload
        assert_eq!(msg.path_as_server_sees_it(), b"a");
    }

    #[test]
    fn sym_round_trip() {
        let mut pool = TermPool::new();
        let msg = FspMessage::request(Command::GetDir, b"d");
        let sym = msg.to_sym(&mut pool);
        assert!(sym.is_concrete(&pool));
        let model = achilles_solver::Model::new();
        let values = sym.concretize(&pool, &model);
        assert_eq!(FspMessage::from_field_values(&values), msg);
    }
}

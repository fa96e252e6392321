//! Crash-safe JSONL persistence: checksummed lines and atomic writes.
//!
//! The persistent verdict cache saves through [`atomic_write`]: the
//! full contents go to a sibling temporary file, which is fsynced and
//! then atomically renamed over the target. A reader — or a process killed between saves — only
//! ever sees the old complete file or the new complete file, never a
//! torn mix.
//!
//! Each line additionally carries a CRC-32 prefix (`<8-hex-crc>
//! <json>`), written by [`encode_line`] and verified by
//! [`decode_line`]. The checksum catches the corruption the rename
//! cannot: a line damaged at rest, or a legacy store torn by the plain
//! `fs::write` that predates this module. Lines without a prefix are
//! accepted unverified, so pre-existing stores keep loading.

use std::io::{self, Write};
use std::path::Path;

/// CRC-32 (IEEE, reflected). Bitwise — store saves are cold paths, so
/// a lookup table would buy nothing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Prefixes one JSONL line with its checksum: `<8-hex-crc> <body>`.
pub fn encode_line(body: &str) -> String {
    format!("{:08x} {body}", crc32(body.as_bytes()))
}

/// Why a checksummed line failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChecksumMismatch;

/// Strips and verifies the checksum prefix of one line. A line without
/// a prefix (legacy stores: the body starts with `{`, never eight hex
/// digits and a space) passes through unverified.
pub fn decode_line(line: &str) -> Result<&str, ChecksumMismatch> {
    let bytes = line.as_bytes();
    let prefixed =
        bytes.len() > 9 && bytes[8] == b' ' && bytes[..8].iter().all(u8::is_ascii_hexdigit);
    if !prefixed {
        return Ok(line);
    }
    let stored = u32::from_str_radix(&line[..8], 16).map_err(|_| ChecksumMismatch)?;
    let body = &line[9..];
    if crc32(body.as_bytes()) == stored {
        Ok(body)
    } else {
        Err(ChecksumMismatch)
    }
}

/// Writes `text` to `path` via write-tmp + fsync + atomic rename, so a
/// crash at any point leaves either the old or the new complete file.
///
/// `site` names the write for the fault-injection harness: an armed
/// `truncate@site` rule (keyed by the target's file name) bypasses the
/// atomic path and writes the torn prefix straight to `path`,
/// simulating the legacy non-atomic write the lossy loaders must
/// survive.
pub fn atomic_write(path: impl AsRef<Path>, text: &str, site: &str) -> io::Result<()> {
    let path = path.as_ref();
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if let Some(n) = crate::fault::truncation(site, name) {
        return std::fs::write(path, &text.as_bytes()[..text.len().min(n)]);
    }
    let tmp = path.with_file_name(format!("{name}.tmp{}", std::process::id()));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Best-effort directory fsync: makes the rename itself durable on
    // filesystems that need it; not supported everywhere, hence ignored.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let body = r#"{"cone":"abc","property":"p0"}"#;
        let line = encode_line(body);
        assert_eq!(decode_line(&line), Ok(body));
    }

    #[test]
    fn corrupted_lines_are_detected() {
        let line = encode_line(r#"{"a":1}"#);
        let torn = &line[..line.len() - 2];
        assert_eq!(decode_line(torn), Err(ChecksumMismatch));
        let flipped = line.replace(":1", ":2");
        assert_eq!(decode_line(&flipped), Err(ChecksumMismatch));
    }

    #[test]
    fn legacy_lines_pass_through() {
        let legacy = r#"{"design":"x","property":"p"}"#;
        assert_eq!(decode_line(legacy), Ok(legacy));
        // Nine hex digits (no space at index 8) is still legacy.
        assert_eq!(decode_line("deadbeef9 x"), Ok("deadbeef9 x"));
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("japrove_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.jsonl");
        atomic_write(&path, "first\n", "verdict_cache_save").unwrap();
        atomic_write(&path, "second\n", "verdict_cache_save").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

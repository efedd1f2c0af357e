//! Server-side state of chunked client graph uploads.
//!
//! An upload is a named slot spooling bytes to a temp file: `begin`
//! opens (or resumes) it, `chunk` appends at an explicit offset,
//! `commit` hands the finished spool to the serve layer for
//! digest-verified catalog registration, `abort` drops it. Slots are
//! **owned by one connection** at a time; when that connection dies the
//! slot is orphaned with a timestamp and reaped after the configured
//! grace period. A grace of zero means partial uploads die with their
//! connection; a non-zero grace lets a client reconnect, re-`begin`
//! with the same `(total_bytes, digest)`, learn the current offset from
//! the response, and resume where the wire cut out.

use crate::proto::{bad_request as bad, ErrorCode, ProtoError};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Distinguishes spool dirs of multiple servers in one process (tests
/// spin up several daemons concurrently).
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

struct Slot {
    total_bytes: u64,
    digest: String,
    format: Option<String>,
    peer: String,
    received: u64,
    /// Connection currently driving the upload; `None` once orphaned.
    owner: Option<u64>,
    orphaned_at: Option<Instant>,
    file: File,
    path: PathBuf,
}

/// A committed upload, ready for load + digest verification.
pub struct FinishedUpload {
    /// Spool file holding the complete uploaded bytes (deleted by
    /// [`UploadRegistry::discard_spool`] once loaded).
    pub path: PathBuf,
    /// Declared fnv1a graph digest (16 hex digits) to verify against.
    pub digest: String,
    /// Declared storage format of the spooled bytes.
    pub format: Option<String>,
    /// Peer that paid for the upload (quota accounting).
    pub peer: String,
    /// Total bytes transferred.
    pub total_bytes: u64,
}

/// Stats-visible view of one pending upload.
pub struct UploadInfo {
    /// Catalog name the upload targets.
    pub name: String,
    /// Uploading peer.
    pub peer: String,
    /// Bytes received so far.
    pub received: u64,
    /// Declared total.
    pub total_bytes: u64,
    /// Whether the owning connection has disconnected.
    pub orphaned: bool,
}

/// All pending uploads of one daemon, plus their spool directory.
pub struct UploadRegistry {
    dir: PathBuf,
    grace: Duration,
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl UploadRegistry {
    /// A registry spooling under a fresh per-daemon temp directory.
    /// `grace` is how long a disconnected client's partial upload
    /// survives for resumption.
    pub fn new(grace: Duration) -> std::io::Result<UploadRegistry> {
        let dir = std::env::temp_dir().join(format!(
            "sg-serve-uploads-{}-{}",
            std::process::id(),
            NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(UploadRegistry { dir, grace, slots: Mutex::new(BTreeMap::new()) })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Slot>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a fresh slot, or resumes an orphaned/owned one declaring
    /// identical `(total_bytes, digest)`. Returns the offset the client
    /// should continue from (0 for a fresh slot).
    pub fn begin(
        &self,
        conn: u64,
        peer: &str,
        name: &str,
        total_bytes: u64,
        digest: &str,
        format: Option<&str>,
    ) -> Result<u64, ProtoError> {
        self.reap();
        if name.is_empty() {
            return Err(bad("upload name must be non-empty"));
        }
        let mut slots = self.lock();
        if let Some(slot) = slots.get_mut(name) {
            if slot.owner.is_some() && slot.owner != Some(conn) {
                return Err(bad(format!("upload '{name}' is in progress on another connection")));
            }
            if slot.total_bytes == total_bytes && slot.digest == digest {
                // Resume: adopt the slot and report where to continue.
                slot.owner = Some(conn);
                slot.orphaned_at = None;
                slot.peer = peer.to_string();
                return Ok(slot.received);
            }
            // Same name, different content: restart from scratch.
            let slot = slots.remove(name).expect("slot just found");
            let _ = std::fs::remove_file(&slot.path);
        }
        let path = self.dir.join(format!("{}.spool", fnv1a_name(name)));
        let file =
            OpenOptions::new().create(true).write(true).truncate(true).open(&path).map_err(
                |e| ProtoError::new(ErrorCode::Io, format!("opening upload spool: {e}")),
            )?;
        slots.insert(
            name.to_string(),
            Slot {
                total_bytes,
                digest: digest.to_string(),
                format: format.map(str::to_string),
                peer: peer.to_string(),
                received: 0,
                owner: Some(conn),
                orphaned_at: None,
                file,
                path,
            },
        );
        Ok(0)
    }

    /// Appends `data` at `offset`, which must equal the bytes received so
    /// far (chunks already received — a resume overlap — are ignored).
    /// Returns the new received count.
    pub fn chunk(
        &self,
        conn: u64,
        name: &str,
        offset: u64,
        data: &[u8],
    ) -> Result<u64, ProtoError> {
        let mut slots = self.lock();
        let slot = slots
            .get_mut(name)
            .ok_or_else(|| bad(format!("no upload '{name}' in progress (begin first)")))?;
        if slot.owner != Some(conn) {
            return Err(bad(format!(
                "upload '{name}' is not owned by this connection (resume with begin)"
            )));
        }
        if offset + data.len() as u64 <= slot.received {
            return Ok(slot.received); // duplicate after resume — already have it
        }
        if offset != slot.received {
            return Err(bad(format!(
                "chunk offset {offset} does not match received {} (chunks are in-order)",
                slot.received
            )));
        }
        if slot.received + data.len() as u64 > slot.total_bytes {
            return Err(bad(format!(
                "chunk overruns declared total_bytes {} (received {}, chunk {})",
                slot.total_bytes,
                slot.received,
                data.len()
            )));
        }
        slot.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| slot.file.write_all(data))
            .map_err(|e| ProtoError::new(ErrorCode::Io, format!("spooling chunk: {e}")))?;
        slot.received += data.len() as u64;
        Ok(slot.received)
    }

    /// Closes a complete slot and hands back the spool for verification.
    /// The slot is removed either way; the caller deletes the spool with
    /// [`UploadRegistry::discard_spool`] when done.
    pub fn commit(&self, conn: u64, name: &str) -> Result<FinishedUpload, ProtoError> {
        let mut slots = self.lock();
        let slot = slots
            .get(name)
            .ok_or_else(|| bad(format!("no upload '{name}' in progress (begin first)")))?;
        if slot.owner != Some(conn) {
            return Err(bad(format!(
                "upload '{name}' is not owned by this connection (resume with begin)"
            )));
        }
        if slot.received != slot.total_bytes {
            return Err(bad(format!(
                "upload '{name}' is incomplete: {} of {} bytes",
                slot.received, slot.total_bytes
            )));
        }
        let mut slot = slots.remove(name).expect("slot just found");
        let _ = slot.file.flush();
        Ok(FinishedUpload {
            path: slot.path,
            digest: slot.digest,
            format: slot.format,
            peer: slot.peer,
            total_bytes: slot.total_bytes,
        })
    }

    /// Drops a pending upload and its spool file.
    pub fn abort(&self, conn: u64, name: &str) -> Result<(), ProtoError> {
        let mut slots = self.lock();
        match slots.get(name) {
            None => Err(bad(format!("no upload '{name}' in progress"))),
            Some(slot) if slot.owner != Some(conn) => {
                Err(bad(format!("upload '{name}' is not owned by this connection")))
            }
            Some(_) => {
                let slot = slots.remove(name).expect("slot just found");
                let _ = std::fs::remove_file(&slot.path);
                Ok(())
            }
        }
    }

    /// Deletes a committed upload's spool file.
    pub fn discard_spool(&self, finished: &FinishedUpload) {
        let _ = std::fs::remove_file(&finished.path);
    }

    /// Marks every slot owned by `conn` as orphaned (or reaps it
    /// immediately when the grace period is zero). Called when a
    /// connection ends for any reason.
    pub fn disconnect(&self, conn: u64) {
        let mut slots = self.lock();
        if self.grace.is_zero() {
            let victims: Vec<String> = slots
                .iter()
                .filter(|(_, s)| s.owner == Some(conn))
                .map(|(n, _)| n.clone())
                .collect();
            for name in victims {
                let slot = slots.remove(&name).expect("victim just listed");
                let _ = std::fs::remove_file(&slot.path);
            }
            return;
        }
        for slot in slots.values_mut().filter(|s| s.owner == Some(conn)) {
            slot.owner = None;
            slot.orphaned_at = Some(Instant::now());
        }
    }

    /// Drops orphaned slots whose grace period has expired; returns how
    /// many were reaped.
    pub fn reap(&self) -> usize {
        let mut slots = self.lock();
        let victims: Vec<String> = slots
            .iter()
            .filter(|(_, s)| s.orphaned_at.is_some_and(|t| t.elapsed() >= self.grace))
            .map(|(n, _)| n.clone())
            .collect();
        for name in &victims {
            let slot = slots.remove(name).expect("victim just listed");
            let _ = std::fs::remove_file(&slot.path);
        }
        victims.len()
    }

    /// Stats-visible snapshot of pending uploads (reaps expired orphans
    /// first, so stats never show dead slots).
    pub fn snapshot(&self) -> Vec<UploadInfo> {
        self.reap();
        self.lock()
            .iter()
            .map(|(name, s)| UploadInfo {
                name: name.clone(),
                peer: s.peer.clone(),
                received: s.received,
                total_bytes: s.total_bytes,
                orphaned: s.owner.is_none(),
            })
            .collect()
    }
}

impl Drop for UploadRegistry {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Collision-safe spool file stem: names are client-chosen strings that
/// may contain path separators; the fnv1a hex form never does.
fn fnv1a_name(name: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry(grace_ms: u64) -> UploadRegistry {
        UploadRegistry::new(Duration::from_millis(grace_ms)).expect("registry")
    }

    #[test]
    fn begin_chunk_commit_roundtrip() {
        let reg = registry(60_000);
        assert_eq!(reg.begin(1, "peer", "g", 6, "abc", None).expect("begin"), 0);
        assert_eq!(reg.chunk(1, "g", 0, b"hel").expect("chunk"), 3);
        assert_eq!(reg.chunk(1, "g", 3, b"lo!").expect("chunk"), 6);
        let done = reg.commit(1, "g").expect("commit");
        assert_eq!(std::fs::read(&done.path).expect("spool"), b"hello!");
        reg.discard_spool(&done);
        assert!(!done.path.exists());
    }

    #[test]
    fn out_of_order_overrun_and_incomplete_are_rejected() {
        let reg = registry(60_000);
        reg.begin(1, "peer", "g", 4, "abc", None).expect("begin");
        assert!(reg.chunk(1, "g", 2, b"xy").is_err(), "gap rejected");
        assert!(reg.chunk(1, "g", 0, b"toolong").is_err(), "overrun rejected");
        reg.chunk(1, "g", 0, b"ab").expect("chunk");
        assert!(reg.commit(1, "g").is_err(), "incomplete commit rejected");
        // Another connection cannot touch the live slot.
        assert!(reg.chunk(2, "g", 2, b"cd").is_err());
        assert!(reg.begin(2, "peer", "g", 4, "abc", None).is_err());
    }

    #[test]
    fn disconnect_with_zero_grace_reaps_immediately() {
        let reg = registry(0);
        reg.begin(7, "peer", "g", 4, "abc", None).expect("begin");
        reg.chunk(7, "g", 0, b"ab").expect("chunk");
        reg.disconnect(7);
        assert!(reg.snapshot().is_empty(), "slot reaped with its connection");
        assert!(reg.begin(8, "peer", "g", 4, "abc", None).is_ok(), "name is free again");
        // Resume-begin on the *new* slot starts over (old bytes are gone).
        assert_eq!(reg.snapshot()[0].received, 0);
    }

    #[test]
    fn orphaned_slot_resumes_within_grace() {
        let reg = registry(60_000);
        reg.begin(7, "peer", "g", 4, "abc", None).expect("begin");
        reg.chunk(7, "g", 0, b"ab").expect("chunk");
        reg.disconnect(7);
        assert!(reg.snapshot()[0].orphaned);
        // A fresh connection with matching (total, digest) adopts at the
        // recorded offset; duplicate chunks are tolerated.
        assert_eq!(reg.begin(8, "peer", "g", 4, "abc", None).expect("resume"), 2);
        assert_eq!(reg.chunk(8, "g", 0, b"ab").expect("dup"), 2);
        assert_eq!(reg.chunk(8, "g", 2, b"cd").expect("tail"), 4);
        let done = reg.commit(8, "g").expect("commit");
        assert_eq!(std::fs::read(&done.path).expect("spool"), b"abcd");
        reg.discard_spool(&done);
    }

    #[test]
    fn expired_orphans_are_reaped() {
        let reg = registry(20);
        reg.begin(7, "peer", "g", 4, "abc", None).expect("begin");
        reg.disconnect(7);
        std::thread::sleep(Duration::from_millis(40));
        assert!(reg.snapshot().is_empty(), "grace expired");
    }
}

//! Worker-panic injection against the sharded writer.
//!
//! The sharded writer runs a codec thread and an I/O thread per shard.
//! A panic inside either worker must surface as a typed
//! [`StoreError`] from `close()` — never a propagated panic, a hang,
//! or a torn commit — and dropping a writer whose workers died must be
//! silent. This file injects the panic through the [`StoreFs`] seam: a
//! filesystem whose file handles pass the segment header through
//! (written on the caller's thread during `create_in`) and then panic
//! on the first record append, which lands inside the shard's I/O
//! thread. The codec thread then either finishes cleanly (its send
//! beat the panic) or reports the closed channel; `close()` must
//! answer `Corrupt` either way.

mod common;

use common::TestDir;
use isobar::IsobarOptions;
use isobar_store::{
    RealFile, RealFs, ShardedOptions, ShardedStoreWriter, StoreError, StoreFile, StoreFs,
};
use std::path::{Path, PathBuf};

/// A real file that panics on every write after the first (the segment
/// header), i.e. on the first record append in the I/O thread.
struct PanickingFile {
    inner: RealFile,
    writes: usize,
}

impl StoreFile for PanickingFile {
    fn write_all(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.writes += 1;
        if self.writes > 1 {
            panic!("injected I/O-thread panic");
        }
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.inner.sync_data()
    }
}

/// [`RealFs`] except that every created file is a [`PanickingFile`].
#[derive(Clone, Copy)]
struct PanickingFs;

impl StoreFs for PanickingFs {
    type File = PanickingFile;

    fn create(&self, path: &Path) -> std::io::Result<PanickingFile> {
        Ok(PanickingFile {
            inner: RealFs.create(path)?,
            writes: 0,
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        RealFs.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> std::io::Result<()> {
        RealFs.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        RealFs.sync_dir(dir)
    }

    fn read_file(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealFs.read_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        RealFs.create_dir_all(path)
    }

    fn list_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        RealFs.list_dir(dir)
    }
}

fn panicking_writer(dir: &Path) -> ShardedStoreWriter<PanickingFs> {
    ShardedStoreWriter::create_in(
        PanickingFs,
        dir,
        IsobarOptions::default(),
        ShardedOptions {
            shards: 2,
            queue_depth: 2,
        },
    )
    .expect("create succeeds; the panic is armed for record appends")
}

#[test]
fn close_reports_worker_panic_as_typed_error() {
    let dir = TestDir::new("worker-panic-close");
    let writer = panicking_writer(&dir);

    // The put itself only enqueues; the panic fires asynchronously in
    // the shard's I/O thread. Whether this put (or a later one) sees
    // the dead shard is a race — both answers are legal here.
    let _ = writer.put(0, "field", vec![7u8; 4096], 8);

    let err = writer.close().expect_err("panicked worker must fail close");
    match err {
        StoreError::Corrupt(message) => {
            assert!(
                message.contains("panicked") || message.contains("terminated"),
                "unexpected corrupt message: {message}"
            );
        }
        other => panic!("expected StoreError::Corrupt, got {other:?}"),
    }

    // No torn commit: the failed generation must not have produced a
    // manifest, and the .wip segments were swept.
    assert!(
        !dir.join("MANIFEST").exists(),
        "a panicked worker must never commit a manifest"
    );
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("store dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".wip"))
        .collect();
    assert!(
        leftovers.is_empty(),
        "wip segments left behind: {leftovers:?}"
    );
}

#[test]
fn drop_after_worker_panic_is_silent() {
    let dir = TestDir::new("worker-panic-drop");
    let writer = panicking_writer(&dir);
    let _ = writer.put(0, "field", vec![7u8; 4096], 8);
    // Give the I/O thread a moment to actually hit the injected panic
    // so drop joins an already-dead thread at least some of the time.
    std::thread::sleep(std::time::Duration::from_millis(20));
    // Must join the dead workers and sweep files without propagating
    // the worker's panic into this thread.
    drop(writer);
    assert!(!dir.join("MANIFEST").exists());
}

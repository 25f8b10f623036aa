package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"patchindex/internal/engine"
)

// filesBytes sums the sizes of the files directly in dir whose names
// end in suffix. A missing dir holds 0 bytes.
func filesBytes(dir, suffix string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// walBytes is the size of the WAL segments under dir, read from outside
// the engine.
func walBytes(dir string) (int64, error) { return filesBytes(filepath.Join(dir, "wal"), ".wal") }

// checkpointBytes is the size of the checkpoint files under dir.
func checkpointBytes(dir string) (int64, error) { return filesBytes(dir, ".ckpt") }

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Synced, so the copy's write-back does not run during the Recover
	// that reads it.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// timeCheckpoint times one CheckpointToDisk of db into dir.
func (b *bench) timeCheckpoint(db *engine.Database, dir string) (time.Duration, error) {
	t0 := time.Now()
	err := db.CheckpointToDisk(dir)
	t1 := time.Now()
	b.tr.record("engine.checkpoint", t0, t1)
	if err != nil {
		return 0, fmt.Errorf("CheckpointToDisk: %w", err)
	}
	return t1.Sub(t0), nil
}

// checkpointProbe times one CheckpointToDisk of db into dir. The
// calibration before it collects garbage first, so the garbage of the
// rounds before does not land in its time.
func (b *bench) checkpointProbe(db *engine.Database, dir string) {
	b.calibrate("checkpoint")
	d, err := b.timeCheckpoint(db, dir)
	b.done(err)
	if err == nil {
		b.checkpointMS = append(b.checkpointMS, ms(d))
	}
}

// recoverProbe copies dir, recovers the copy into an empty database,
// times the Recover and checks the recovered database with check. The
// copy is made outside the timing, because Recover re-attaches the WAL
// to the directory it read.
func (b *bench) recoverProbe(dir string, check func(*engine.Database) error) {
	cp := filepath.Join(b.cfg.dir, "recover")
	if err := copyTree(dir, cp); err != nil {
		b.done(fmt.Errorf("copying %s: %w", dir, err))
		return
	}
	b.calibrate("recover")
	db := engine.NewDatabase()
	t0 := time.Now()
	st, err := db.Recover(cp)
	t1 := time.Now()
	b.tr.record("engine.recover", t0, t1)
	if err != nil {
		b.done(fmt.Errorf("Recover: %w", err))
	} else {
		b.recoverS = append(b.recoverS, t1.Sub(t0).Seconds())
		b.layer["engine.recover.records_applied"] = float64(st.Applied)
		b.done(check(db))
	}
	db.Close()
	b.done(os.RemoveAll(cp))
}

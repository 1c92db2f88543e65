package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/storage"
)

// BootstrapDir prepares a replica directory from a leader checkpoint
// image: the segment files the manifest at manifestPath references are
// copied first, then the manifest itself, and any stale log from a
// previous incarnation is removed, so the replica opens at exactly the
// leader's checkpointed state.  A file that is not a manifest is
// rejected before the replica directory is touched.  Bootstrap is not
// crash-atomic — a half-bootstrapped replica is simply bootstrapped
// again.
func BootstrapDir(leaderFS fault.FS, manifestPath string, replicaFS fault.FS, replicaDir string) error {
	data, err := leaderFS.ReadFile(manifestPath)
	if err != nil {
		return fmt.Errorf("repl: bootstrap read manifest: %w", err)
	}
	segs, err := storage.ManifestSegments(data)
	if err != nil {
		return fmt.Errorf("repl: bootstrap: %s is not a checkpoint manifest: %w", manifestPath, err)
	}
	if err := replicaFS.MkdirAll(replicaDir, 0o755); err != nil {
		return fmt.Errorf("repl: bootstrap mkdir: %w", err)
	}
	if err := replicaFS.Remove(filepath.Join(replicaDir, storage.WALFileName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("repl: bootstrap remove stale log: %w", err)
	}
	leaderDir := filepath.Dir(manifestPath)
	for _, seg := range segs {
		segData, err := leaderFS.ReadFile(filepath.Join(leaderDir, seg))
		if err != nil {
			return fmt.Errorf("repl: bootstrap read segment %s: %w", seg, err)
		}
		if err := bootstrapCopy(replicaFS, filepath.Join(replicaDir, seg), segData); err != nil {
			return err
		}
	}
	// The manifest lands after every segment it names is in place.
	if err := bootstrapCopy(replicaFS, filepath.Join(replicaDir, storage.ManifestFileName), data); err != nil {
		return err
	}
	return replicaFS.SyncDir(replicaDir)
}

// bootstrapCopy writes one bootstrapped file: create, write, fsync.
func bootstrapCopy(fs fault.FS, dst string, data []byte) error {
	f, err := fs.Create(dst)
	if err != nil {
		return fmt.Errorf("repl: bootstrap create %s: %w", filepath.Base(dst), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("repl: bootstrap copy %s: %w", filepath.Base(dst), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("repl: bootstrap sync %s: %w", filepath.Base(dst), err)
	}
	return f.Close()
}

// AttachReplica performs the whole join dance over an in-process pipe:
// checkpoint-bootstrap into sopts.Dir, open the directory in replica
// mode (sopts.Replica is forced on), wire the link, and start the
// loops.  sopts carries the replica's Dir/FS/Obs — pass the leader's
// Obs registry for cluster-wide repl.* metrics — and ropts the
// replication tuning shared with the shipper.
func AttachReplica(s *Shipper, name string, sopts storage.Options, ropts Options) (*Replica, error) {
	if sopts.Dir == "" {
		return nil, errors.New("repl: replica needs a directory")
	}
	ropts = ropts.withDefaults()
	conn := NewPipe(ropts.QueueLen)
	rfs := sopts.FS
	if rfs == nil {
		rfs = fault.Disk{}
	}
	if err := s.AddReplica(name, conn, func(manifestPath string) error {
		return BootstrapDir(s.db.FS(), manifestPath, rfs, sopts.Dir)
	}); err != nil {
		conn.Close()
		return nil, err
	}
	sopts.Replica = true
	db, err := storage.Open(sopts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	rep, err := NewReplica(db, conn, ropts)
	if err != nil {
		conn.Close()
		db.Close()
		return nil, err
	}
	rep.Start()
	return rep, nil
}

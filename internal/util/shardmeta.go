package util

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// ShardsMetaFile is the file recording the shard count a partitioned store
// directory was created with. OpenShards validates it, because reopening
// with a different count would silently route keys to the wrong shard.
const ShardsMetaFile = "SHARDS"

// OpenShards is the one open loop of every partitioned store (core's
// table, kv's shard router): it creates dir, refuses a shard-count
// mismatch, opens each of shards shards in its ShardDirs directory with
// open — closing the ones already open if a later one fails — and
// durably records the count only once every shard is open, so a failed
// open never pins the directory to a count that holds no data.
func OpenShards[E io.Closer](dir string, shards int, open func(dir string) (E, error)) ([]E, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := validateShardMeta(dir, shards); err != nil {
		return nil, err
	}
	out := make([]E, 0, shards)
	fail := func(err error) ([]E, error) {
		for _, sh := range out {
			sh.Close()
		}
		return nil, err
	}
	for _, d := range ShardDirs(dir, shards) {
		sh, err := open(d)
		if err != nil {
			return fail(err)
		}
		out = append(out, sh)
	}
	meta := []byte(strconv.Itoa(shards) + "\n")
	if err := AtomicWriteFile(filepath.Join(dir, ShardsMetaFile), meta, 0o644); err != nil {
		return fail(err)
	}
	return out, nil
}

// ShardDirs returns the per-shard storage directories under dir. One
// shard stores directly in dir, byte-compatible with stores created before
// sharding existed; more get shard-NNN subdirectories.
func ShardDirs(dir string, shards int) []string {
	if shards <= 1 {
		return []string{dir}
	}
	dirs := make([]string, shards)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
	}
	return dirs
}

// validateShardMeta checks dir against the requested shard count. A
// missing metadata file passes, except when sharding is requested for a
// directory that already holds an unsharded log (whose keys would become
// unreachable).
func validateShardMeta(dir string, shards int) error {
	metaPath := filepath.Join(dir, ShardsMetaFile)
	if raw, err := os.ReadFile(metaPath); err == nil {
		prev, perr := strconv.Atoi(strings.TrimSpace(string(raw)))
		if perr != nil {
			return fmt.Errorf("corrupt shard metadata in %s: %q", metaPath, raw)
		}
		if prev != shards {
			return fmt.Errorf("table at %s was created with %d shards, reopened with %d", dir, prev, shards)
		}
		return nil
	}
	if shards > 1 {
		if _, err := os.Stat(filepath.Join(dir, "hlog.dat")); err == nil {
			return fmt.Errorf("table at %s holds unsharded data; cannot reopen with %d shards", dir, shards)
		}
	}
	return nil
}

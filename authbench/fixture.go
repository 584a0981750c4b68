package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	authorindex "repro"
	"repro/internal/model"
	"repro/internal/storage"
	"repro/internal/wal"
)

// streamWorks is how many works past the stored corpus every 100k-work
// workload generates. Writers post them, so they continue the same
// generator and land on existing headings; the count covers a closed
// ingest loop at several times the rate it runs on a 2-core box.
const streamWorks = 1 << 16

// corpus is one workload's generated inputs: the works already stored
// when the run starts and the stream writers post during it.
type corpus struct {
	Stored []*model.Work
	Stream []*model.Work
}

// noStudents is a StudentProb no draw falls below; zero would select the
// generator's default of 0.25.
const noStudents = -1

// genCorpus generates stored+stream works from the seed. The author pool
// is sized by the stored corpus, so streamed works reuse its headings.
//
// No author in the pool is a student; student notes still mark their
// first author as one, so a quarter of each author's works file under a
// student heading. With students in the pool, whether the most prolific
// author was one decided, by seed, whether their 17k authorships at 100k
// works formed one heading or split 13k and 4k. Filing a work scans and
// shifts its heading's works, so two seeds in ten ran ingest 12% slower.
func genCorpus(seed int64, stored, stream int) corpus {
	all := authorindex.GenerateCorpus(authorindex.CorpusConfig{
		Seed:        seed,
		Works:       stored + stream,
		Authors:     max(10, stored/3),
		ZipfS:       1.1,
		StudentProb: noStudents,
	})
	// The stream gets its own backing array, so dropping the stored
	// works after planning frees them.
	return corpus{Stored: all[:stored], Stream: append([]*model.Work(nil), all[stored:]...)}
}

// buildStore writes works into a fresh store at dir through the storage
// layer alone — unsynced batches, then one compaction to a snapshot —
// which is far faster than indexing them through the facade. Only the
// bytes on disk matter: the index is rebuilt from them on Open.
func buildStore(dir string, works []*model.Work) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := storage.Open(dir, storage.Options{WAL: wal.Options{NoSync: true}})
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	const chunk = 4096
	for i := 0; i < len(works); i += chunk {
		if _, err := st.PutBatch(works[i:min(i+chunk, len(works))]); err != nil {
			st.Close()
			return fmt.Errorf("fixture: put: %w", err)
		}
	}
	if err := st.Compact(); err != nil {
		st.Close()
		return fmt.Errorf("fixture: compact: %w", err)
	}
	return st.Close()
}

// copyDir replaces dst with a copy of the regular files under src, so a
// run that writes starts from the fixture's exact bytes.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
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
	return out.Close()
}

// dirBytes sums the sizes of the regular files under dir: the store's
// snapshot plus its WAL segments.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance identifies what produced a run: the source (revision when the
// tree is a git checkout, and always a hash of the Go sources), the
// toolchain and the host parallelism the run saw.
type provenance struct {
	Rev        string  `json:"rev"`
	SourceHash string  `json:"source_hash"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newProvenance(o options) provenance {
	return provenance{
		Rev:        o.rev,
		SourceHash: sourceHash("."),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Seed:       o.seed,
		Seconds:    o.seconds,
	}
}

// sourceHash digests every .go file and go.mod under root (build output
// directories skipped), so two records built from different code differ
// even when neither knows its git revision.
func sourceHash(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprint hashes a workload's parameters: two runs whose fingerprints
// differ ran different workloads and must not be diffed.
func fingerprint(params any) string {
	data, err := json.Marshal(params)
	if err != nil {
		panic(err) // params are plain structs; a marshal failure is a bug
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
)

// Store is the content-addressed campaign store: one verdict journal per
// campaign fingerprint, in one directory. The address is
// fault.JournalHeader.Key() — program image, fault universe, environment
// and universe size hashed together — so two requests resolve to the same
// journal exactly when they are the same pure function, and a journal can
// never serve verdicts to a campaign it does not belong to (ResumeJournal
// re-verifies the full header, not just the key). Shard completion state
// is derived from the journal (fault.Journal.Unsettled), which is what
// makes completed shards — and whole campaigns — cache hits across jobs,
// process restarts and worker losses.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the store directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the journal path addressing campaign h.
func (s *Store) Path(h fault.JournalHeader) string {
	return filepath.Join(s.dir, h.Key()+".journal")
}

// Open opens campaign h's journal, resuming any verdicts previous jobs
// settled; a campaign never seen before starts an empty journal. The
// caller owns Close.
func (s *Store) Open(h fault.JournalHeader) (*fault.Journal, error) {
	return fault.ResumeJournal(s.Path(h), h)
}

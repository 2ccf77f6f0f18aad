package bench

import (
	"fmt"

	"moc/internal/rng"
)

// Restore batches are sized so one batch takes milliseconds, not the
// 0.3 ms of a single subset read.
const (
	restoreReadsPerBatch = 32
	restoreModulesPerGet = 4
	restoreNewestRounds  = 3
)

// restoreReader is the serving reader of the end-to-end run and of the
// traced walk: subset reads whose round (among the newest the reader
// knows) and modules are Zipf picks drawn from the run's seed. Its scratch
// is reused from slice to slice.
type restoreReader struct {
	picks     *rng.RNG
	rounds    []int
	roundPick *rng.Zipf
	modules   map[int][]string
	modPicks  map[int]*rng.Zipf
	subset    []string
}

func newRestoreReader(picks *rng.RNG) *restoreReader {
	return &restoreReader{
		picks:    picks,
		rounds:   make([]int, 0, restoreNewestRounds),
		modules:  make(map[int][]string, restoreNewestRounds),
		modPicks: make(map[int]*rng.Zipf, restoreNewestRounds),
		subset:   make([]string, 0, restoreModulesPerGet),
	}
}

// aim points the reader at the newest of the committed rounds (ascending
// in all); modules lists the module names a round holds.
func (p *restoreReader) aim(all []int, modules func(round int) []string) error {
	if len(all) == 0 {
		return fmt.Errorf("bench: the serving reader sees no rounds")
	}
	p.rounds = p.rounds[:0]
	for i := len(all) - 1; i >= 0 && len(p.rounds) < restoreNewestRounds; i-- {
		p.rounds = append(p.rounds, all[i])
	}
	clear(p.modules)
	clear(p.modPicks)
	for _, round := range p.rounds {
		names := modules(round)
		if len(names) == 0 {
			return fmt.Errorf("bench: round %d holds no modules", round)
		}
		p.modules[round] = names
		p.modPicks[round] = rng.NewZipf(p.picks, len(names), 1.1)
	}
	p.roundPick = rng.NewZipf(p.picks, len(p.rounds), 1.1)
	return nil
}

// batch makes one batch of subset reads through read and checks that
// every module comes back with the byte count size promises.
func (p *restoreReader) batch(c *checks,
	read func(round int, modules []string) (map[string][]byte, error),
	size func(round int, module string) int64,
) error {
	for i := 0; i < restoreReadsPerBatch; i++ {
		round := p.rounds[p.roundPick.Next()]
		names, modPick := p.modules[round], p.modPicks[round]
		p.subset = p.subset[:0]
		for len(p.subset) < restoreModulesPerGet {
			p.subset = append(p.subset, names[modPick.Next()])
		}
		c.ops++
		got, err := read(round, p.subset)
		if err != nil {
			return err
		}
		for name, blob := range got {
			if want := size(round, name); int64(len(blob)) != want {
				c.fail("restore %s@%d: %d bytes, the checkpoint holds %d", name, round, len(blob), want)
			}
		}
	}
	return nil
}

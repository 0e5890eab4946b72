package sim

import "sync"

// FanOut runs fn(i) for every i in [0, n) on at most limit goroutines of env
// and waits for them: the bounded overlap of independent object-store round
// trips (a directory's child inodes, a journal's records, a checkpoint's
// inode writes). Its outcome does not depend on which call finishes first:
//
//   - items are claimed in index order, and fn stores what it produces by
//     index, so the caller reads results in the order it listed the work;
//   - after a failure no new item is started, and the error returned is that
//     of the lowest failing index. Every lower index was claimed before the
//     failing one and runs to completion, so this is the error a plain loop
//     would have stopped at.
//
// The caller is one of the workers. With limit <= 1, or fewer than two items
// for each of limit workers (a goroutine's hand-off is not worth one round
// trip saved), the whole range runs inline on the caller: no goroutine, no
// channel, and env is not touched, so it may be nil.
func FanOut(env Env, n, limit int, fn func(i int) error) error {
	if limit <= 1 || n < 2*limit {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		mu     sync.Mutex
		next   int
		failed = n // lowest failing index so far
		first  error
	)
	work := func() {
		for {
			mu.Lock()
			i := next
			if first != nil || i >= n {
				mu.Unlock()
				return
			}
			next++
			mu.Unlock()
			if err := fn(i); err != nil {
				mu.Lock()
				if i < failed {
					failed, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	g := NewGroup(env)
	for w := 1; w < limit; w++ {
		g.Go(work)
	}
	work()
	g.Wait()
	mu.Lock()
	defer mu.Unlock()
	return first
}

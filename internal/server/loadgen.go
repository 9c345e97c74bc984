package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// LoadStats is the outcome tally of one load run.
type LoadStats struct {
	// Requests is the number of requests sent.
	Requests int
	// OK counts 200s; Shed counts 429s (backpressure working as
	// designed). Everything else lands in Other by status code — any
	// entry there fails the load gate.
	OK    int
	Shed  int
	Other map[int]int
	// CacheHits and CacheMisses sum the per-response cache counters of
	// the 200s.
	CacheHits   int
	CacheMisses int
	// Verified counts responses byte-checked against the in-process
	// oracle.
	Verified int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// HitRatio returns the cache hit share of the served functions.
func (s *LoadStats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

func (s *LoadStats) String() string {
	return fmt.Sprintf("%d requests in %v: %d ok, %d shed (429), %d other; cache %d/%d (%.1f%% hits); %d verified",
		s.Requests, s.Elapsed.Round(time.Millisecond), s.OK, s.Shed, other(s.Other),
		s.CacheHits, s.CacheHits+s.CacheMisses, 100*s.HitRatio(), s.Verified)
}

func other(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// RunLoad fires bodies at baseURL's /allocate endpoint from
// concurrency goroutines and tallies the outcomes. When verifyEvery is
// n > 0, every n-th successful response is byte-compared against the
// in-process oracle (ReferenceResult) — the load generator doubles as
// a differential checker. The first verification mismatch or transport
// error aborts the run.
func RunLoad(baseURL string, bodies [][]byte, concurrency, verifyEvery int) (*LoadStats, error) {
	units := make([]loadUnit, len(bodies))
	for i, body := range bodies {
		units[i] = loadUnit{body: body, first: i, n: 1}
	}
	return runLoad(baseURL+"/allocate", "request", bodies, units, allocateItems, concurrency, verifyEvery)
}

// RunBatchLoad drives the same corpus through the /batch endpoint:
// the bodies are grouped into arrays of batchSize and each group is
// POSTed as one batch from concurrency goroutines. Per-item outcomes
// tally into the same LoadStats shape (Requests counts items, not
// HTTP posts; a shed batch sheds all of its items). Every
// verifyEvery-th item of the corpus — by its global index, so the
// sample is independent of the grouping — is byte-compared against
// the in-process oracle, exactly like RunLoad's sampling.
func RunBatchLoad(baseURL string, bodies [][]byte, batchSize, concurrency, verifyEvery int) (*LoadStats, error) {
	if batchSize <= 0 {
		batchSize = 1
	}
	var units []loadUnit
	for start := 0; start < len(bodies); start += batchSize {
		end := min(start+batchSize, len(bodies))
		// Each corpus body is a JSON object; a batch request is the
		// JSON array of them.
		var buf bytes.Buffer
		buf.WriteByte('[')
		for i := start; i < end; i++ {
			if i > start {
				buf.WriteByte(',')
			}
			buf.Write(bodies[i])
		}
		buf.WriteByte(']')
		units = append(units, loadUnit{body: buf.Bytes(), first: start, n: end - start})
	}
	return runLoad(baseURL+"/batch", "batch", bodies, units, batchItems, concurrency, verifyEvery)
}

// loadUnit is one POST of a load run: a single /allocate body, or a
// /batch group of corpus items. Its items are bodies[first:first+n].
type loadUnit struct {
	body     []byte
	first, n int
}

// itemOutcome is one corpus item's result within a unit's response:
// its status and, for a 200, the served response.
type itemOutcome struct {
	status int
	resp   *Response
}

// allocateItems reads an /allocate response as its unit's one item.
func allocateItems(status int, raw []byte, _ int) ([]itemOutcome, error) {
	if status != http.StatusOK {
		return []itemOutcome{{status: status}}, nil
	}
	var r Response
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("bad response JSON: %w", err)
	}
	return []itemOutcome{{status: status, resp: &r}}, nil
}

// batchItems reads a /batch response as its n items' outcomes. A
// batch refused at the edge (shed or error) gives every item its
// status.
func batchItems(status int, raw []byte, n int) ([]itemOutcome, error) {
	out := make([]itemOutcome, n)
	if status != http.StatusOK {
		for j := range out {
			out[j].status = status
		}
		return out, nil
	}
	var items []BatchItem
	if err := json.Unmarshal(raw, &items); err != nil {
		return nil, fmt.Errorf("bad response JSON: %w", err)
	}
	if len(items) != n {
		return nil, fmt.Errorf("%d items for %d requests", len(items), n)
	}
	for j, item := range items {
		out[j] = itemOutcome{status: item.Status, resp: item.Response}
	}
	return out, nil
}

// runLoad POSTs every unit to url from concurrency goroutines, reads
// each response into per-item outcomes with items, and tallies them.
// Every verifyEvery-th corpus item that was served is byte-compared
// against the in-process oracle. The first transport error, malformed
// response or verification mismatch aborts the run; kind names a unit
// in its error.
func runLoad(url, kind string, bodies [][]byte, units []loadUnit,
	items func(status int, raw []byte, n int) ([]itemOutcome, error),
	concurrency, verifyEvery int) (*LoadStats, error) {
	if concurrency <= 0 {
		concurrency = 1
	}
	client := &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        concurrency,
			MaxIdleConnsPerHost: concurrency,
		},
	}
	stats := &LoadStats{Other: make(map[int]int)}
	var mu sync.Mutex // guards stats and firstErr
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	aborted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return firstErr != nil
	}
	var next atomic.Int64

	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !aborted() {
				ui := int(next.Add(1) - 1)
				if ui >= len(units) {
					return
				}
				u := units[ui]
				resp, err := client.Post(url, "application/json", bytes.NewReader(u.body))
				if err != nil {
					fail(fmt.Errorf("%s %d: %w", kind, ui, err))
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail(fmt.Errorf("%s %d: read response: %w", kind, ui, err))
					return
				}
				outcomes, err := items(resp.StatusCode, raw, u.n)
				if err != nil {
					fail(fmt.Errorf("%s %d: %w", kind, ui, err))
					return
				}
				for j, o := range outcomes {
					idx := u.first + j
					mu.Lock()
					stats.Requests++
					switch o.status {
					case http.StatusOK:
						stats.OK++
					case http.StatusTooManyRequests:
						stats.Shed++
					default:
						stats.Other[o.status]++
					}
					if o.status == http.StatusOK && o.resp != nil {
						stats.CacheHits += o.resp.CacheHits
						stats.CacheMisses += o.resp.CacheMisses
					}
					mu.Unlock()
					if o.status != http.StatusOK || o.resp == nil || verifyEvery <= 0 || idx%verifyEvery != 0 {
						continue
					}
					if err := verifyAgainstOracle(bodies[idx], o.resp); err != nil {
						fail(fmt.Errorf("request %d: %w", idx, err))
						return
					}
					mu.Lock()
					stats.Verified++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	stats.Elapsed = time.Since(t0)
	return stats, firstErr
}

// verifyAgainstOracle byte-compares a served result against the
// in-process reference for the same request body.
func verifyAgainstOracle(body []byte, got *Response) error {
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		return fmt.Errorf("decode request for verification: %w", err)
	}
	want, err := ReferenceResult(&req)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		return err
	}
	gb, err := json.Marshal(got.Result)
	if err != nil {
		return err
	}
	if !bytes.Equal(wb, gb) {
		return fmt.Errorf("served result differs from in-process oracle:\nserved: %.400s\noracle: %.400s", gb, wb)
	}
	return nil
}

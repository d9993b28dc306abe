package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"srmsort"
	"srmsort/internal/record"
)

// Ingest counts a job's records without decoding them — fixed16 by its
// byte total, varlen by its length prefixes — and the count is right for
// both codecs, on volatile and durable managers, through Submit and over
// HTTP (where Content-Length sizes the buffers).
func TestIngestCountsRecords(t *testing.T) {
	var varIn bytes.Buffer
	vrecs := make([]srmsort.VarRecord, 777)
	for i := range vrecs {
		vrecs[i] = srmsort.VarRecord{Key: []byte(fmt.Sprintf("key-%05d", (i*7919)%777)), Payload: bytes.Repeat([]byte{byte(i)}, i%40)}
	}
	if err := srmsort.WriteVarRecords(&varIn, vrecs); err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]byte{"fixed16": genRaw(t, 1234, 5), "varlen": varIn.Bytes()}
	counts := map[string]int{"fixed16": 1234, "varlen": len(vrecs)}
	for _, root := range []string{"", t.TempDir()} {
		m, err := NewManager(Options{Root: root, MemoryBudget: 2_000_000, Defaults: testSpec(1)})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(m))
		for codec, in := range inputs {
			label := fmt.Sprintf("%s/durable=%v", codec, root != "")
			j, err := m.Submit(Spec{Codec: codec}, bytes.NewReader(in))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if st := waitJob(t, j); st.State != StateDone || st.Records != counts[codec] {
				t.Fatalf("%s: state %s (%s), %d records, want done with %d", label, st.State, st.Error, st.Records, counts[codec])
			}
			resp, err := http.Post(srv.URL+"/jobs?codec="+codec, "application/octet-stream", bytes.NewReader(in))
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var st Status
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusAccepted || st.Records != counts[codec] {
				t.Fatalf("%s over HTTP: HTTP %d, %v, %d records, want %d", label, resp.StatusCode, err, st.Records, counts[codec])
			}
			jh, _ := m.Get(st.ID)
			if st := waitJob(t, jh); st.State != StateDone {
				t.Fatalf("%s over HTTP: state %s (%s)", label, st.State, st.Error)
			}
		}
		// A partial trailing record is refused as corruption, counted up
		// to the record it tears.
		_, err = m.Submit(Spec{}, iotest.HalfReader(bytes.NewReader(inputs["fixed16"][:100*record.Bytes+9])))
		if !errors.Is(err, record.ErrCorrupt) || !strings.Contains(err.Error(), "record size check failed at record 100") {
			t.Fatalf("durable=%v: torn fixed16 input: %v, want a record-size refusal at record 100", root != "", err)
		}
		srv.Close()
		m.Kill()
	}
}

// A body that ends early is refused, not taken for a shorter input, on
// volatile and durable managers alike, even when it ends on a record
// boundary. io.ErrUnexpectedEOF is what net/http's request body returns
// when a body is shorter than its Content-Length.
func TestIngestRefusesTruncatedBody(t *testing.T) {
	vrecs := make([]srmsort.VarRecord, 4)
	for i := range vrecs {
		vrecs[i] = srmsort.VarRecord{Key: []byte(fmt.Sprintf("k%d", i)), Payload: bytes.Repeat([]byte{'p'}, 5*i)}
	}
	var varFull, varHead bytes.Buffer
	if err := srmsort.WriteVarRecords(&varFull, vrecs); err != nil {
		t.Fatal(err)
	}
	if err := srmsort.WriteVarRecords(&varHead, vrecs[:2]); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(varFull.Bytes(), varHead.Bytes()) {
		t.Fatal("a varlen stream's first two records do not encode as its head")
	}
	fixed := genRaw(t, 4, 3)
	// Each input with the length of its first two records: the cut is on
	// a record boundary.
	inputs := map[string]struct {
		body []byte
		cut  int
	}{
		"fixed16": {fixed, 2 * record.Bytes},
		"varlen":  {varFull.Bytes(), varHead.Len()},
	}
	for _, root := range []string{"", t.TempDir()} {
		m, err := NewManager(Options{Root: root, MemoryBudget: 100_000, Defaults: testSpec(1)})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(NewHandler(m))
		for codec, in := range inputs {
			label := fmt.Sprintf("%s/durable=%v", codec, root != "")
			early := io.MultiReader(bytes.NewReader(in.body[:in.cut]), iotest.ErrReader(io.ErrUnexpectedEOF))
			if _, err := m.Submit(Spec{Codec: codec}, early); err == nil || !strings.Contains(err.Error(), "unexpected EOF") {
				t.Fatalf("%s: a body ending in io.ErrUnexpectedEOF after %d bytes: %v, want it refused", label, in.cut, err)
			}

			// Over HTTP: the request claims the whole body and sends its
			// first two records, then half-closes.
			conn, err := net.Dial("tcp", srv.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "POST /jobs?codec=%s HTTP/1.1\r\nHost: sortd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n",
				codec, len(in.body))
			conn.Write(in.body[:in.cut])
			conn.(*net.TCPConn).CloseWrite()
			resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			conn.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "unexpected EOF") {
				t.Fatalf("%s: Content-Length %d over a %d-byte body: HTTP %d %q, want 400 naming the early end",
					label, len(in.body), in.cut, resp.StatusCode, msg)
			}
		}
		if jobs := m.List(); len(jobs) != 0 {
			t.Fatalf("durable=%v: %d jobs registered from truncated bodies", root != "", len(jobs))
		}
		srv.Close()
		m.Kill()
	}
}

// A Content-Length is a hint, capped: a client that claims 1 GiB and
// sends 32 bytes costs ingest at most one chunk of slack while it reads.
// (Over HTTP such a body then ends in io.ErrUnexpectedEOF and is refused:
// TestIngestRefusesTruncatedBody.)
func TestIngestCapsSizeHint(t *testing.T) {
	m, err := NewManager(Options{MemoryBudget: 100_000, Defaults: testSpec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Kill()
	body := genRaw(t, 2, 1)
	j := &Job{spec: testSpec(1)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = m.ingest(j, bytes.NewReader(body), 1<<30)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if j.records != 2 || j.inBytes != int64(len(body)) {
		t.Fatalf("ingested %d records in %d bytes, want 2 in %d", j.records, j.inBytes, len(body))
	}
	const slack = ingestMaxChunk + 64<<10
	if got := after.TotalAlloc - before.TotalAlloc; got > slack {
		t.Fatalf("ingest of a 32-byte body claiming 1 GiB allocated %d bytes, want at most %d", got, slack)
	}
}

// readChunks copies each byte once into chunks it never regrows: an
// honest hint reads the body into exactly its size (one byte over, so
// the end needs no further chunk), and a missing or short one still
// reads everything, whatever the reads return. Only io.EOF ends the
// input; io.ErrUnexpectedEOF from the reader is returned.
func TestReadChunks(t *testing.T) {
	body := make([]byte, 3*ingestMaxChunk+12345)
	for i := range body {
		body[i] = byte(i * 7)
	}
	for _, tc := range []struct {
		name string
		hint int64
	}{{"honest", int64(len(body))}, {"none", -1}, {"short", 1000}, {"zero", 0}} {
		for name, wrap := range map[string]func(io.Reader) io.Reader{
			"whole": func(r io.Reader) io.Reader { return r },
			"half":  iotest.HalfReader,
		} {
			chunks, total, err := readChunks(wrap(bytes.NewReader(body)), tc.hint)
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(chunkReader(chunks))
			if err != nil || total != int64(len(body)) || !bytes.Equal(got, body) {
				t.Fatalf("%s/%s: %d bytes back (total %d, %v), want the %d-byte body", tc.name, name, len(got), total, err, len(body))
			}
			allocated := 0
			for _, c := range chunks {
				if cap(c) > ingestMaxChunk {
					t.Fatalf("%s/%s: a %d-byte chunk, cap is %d", tc.name, name, cap(c), ingestMaxChunk)
				}
				allocated += cap(c)
			}
			if tc.name == "honest" && allocated > len(body)+1 {
				t.Fatalf("honest hint: %d bytes of chunks for a %d-byte body", allocated, len(body))
			}
			early := io.MultiReader(wrap(bytes.NewReader(body[:32])), iotest.ErrReader(io.ErrUnexpectedEOF))
			if _, _, err := readChunks(early, tc.hint); err != io.ErrUnexpectedEOF {
				t.Fatalf("%s/%s: a read ending in io.ErrUnexpectedEOF gave %v, want that error", tc.name, name, err)
			}
		}
	}
}

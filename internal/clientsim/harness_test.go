package clientsim

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/scheduler"
)

// TestBuildStackTaskSetPinned pins what BuildStack(seed 1) compiles and
// assigns: the candidate list, and the first 1,000 tasks its coordinator
// hands a fixed sequence of clients. The hashes were recorded before the
// task-set compile and the coordinator's construction were each moved into
// one function; any change to either that alters the task set, the
// scheduler's picks or the minted IDs shows up here.
func TestBuildStackTaskSetPinned(t *testing.T) {
	const (
		wantCandidates  = "4287c585cb6d54c4d2eca394f8571058be4875ce464ffabfdc32100b82ade057"
		wantAssignments = "ecdd99a5ee86e4797f973b6632ca12c9c736672d839e53c144a26b0cc2849595"
	)
	st := BuildStack(StackConfig{Seed: 1})
	h := sha256.New()
	for _, c := range st.Report.Tasks.All() {
		fmt.Fprintf(h, "%+v\n", c)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantCandidates {
		t.Errorf("candidate list (%d candidates) hashes to %s, want %s", st.Report.Tasks.Len(), got, wantCandidates)
	}

	regions := []geo.CountryCode{"US", "PK", "CN", "IR", "DE", "BR", "IN", "TR"}
	families := core.BrowserFamilies()
	start := time.Date(2014, 5, 1, 0, 0, 0, 0, time.UTC)
	h = sha256.New()
	for i, n := 0, 0; n < 1000; i++ {
		client := scheduler.ClientInfo{Region: regions[i%len(regions)], Browser: families[i%len(families)],
			ExpectedDwellSeconds: float64(5 + i%30)}
		for _, task := range st.Coordinator.AssignAndRegister(client, start.Add(time.Duration(i)*time.Second)) {
			if n == 1000 {
				break
			}
			fmt.Fprintf(h, "%+v\n", task)
			n++
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != wantAssignments {
		t.Errorf("first 1,000 assignments hash to %s, want %s", got, wantAssignments)
	}
}

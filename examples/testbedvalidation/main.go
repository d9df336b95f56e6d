// Testbed validation: reproduces the soundness experiment of §7.1.
//
// The censorship testbed emulates seven varieties of DNS, IP, and HTTP
// filtering on dedicated subdomains plus an unfiltered control. A portion of
// simulated clients is scheduled to measure testbed resources with each task
// type; the experiment then reports, per mechanism and task type, how often
// the task's verdict matched the ground truth — including the image-task
// false positives in high-loss countries that the paper calls out, and the
// script mechanism's documented blindness to block-page substitution.
//
// Run with: go run ./examples/testbedvalidation
package main

import (
	"fmt"

	"encore/internal/censor"
	"encore/internal/core"
	"encore/internal/geo"
	"encore/internal/testbed"
)

func main() {
	// ~30% of clients were instructed to measure testbed resources; here we
	// dedicate the whole run to them. Clients come from a mix of reliable
	// and unreliable networks (India's unreliability drives the ~5% image
	// false-positive rate the paper reports).
	const clients = 400
	regions := []geo.CountryCode{"US", "DE", "GB", "BR", "IN", "IN", "KR", "JP"}
	s := testbed.New("testbed.encore-test.org").Validate(71, clients, regions)

	fmt.Printf("testbed soundness: %d measurements from %d clients:\n\n", s.Measurements, clients)
	fmt.Printf("%-16s %-12s %8s\n", "mechanism", "task", "accuracy")
	for _, m := range append([]censor.Mechanism{censor.MechanismNone}, censor.Mechanisms()...) {
		for _, tt := range core.TaskTypes() {
			if c := s.Cells[m][tt]; c.Total > 0 {
				fmt.Printf("%-16s %-12s %7.1f%%  (%d measurements)\n", m, tt, 100*float64(c.Correct)/float64(c.Total), c.Total)
			}
		}
	}
	fmt.Printf("\nimage-task false positive rate on unfiltered controls: %.1f%% (%d/%d)\n",
		s.PctImageFalsePositives(), s.ControlImageFailures, s.ControlImages)
	fmt.Println("paper §7.1 reports no true positives missed and a ~5% image false-positive rate from clients in India.")
}

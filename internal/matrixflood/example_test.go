package matrixflood_test

import (
	"fmt"

	"ldcflood/internal/matrixflood"
)

// Algorithm 1 on the paper's Fig. 3 instance: N=4 sensors, M=2 packets.
// Packet 0 completes at the single-packet limit (3 compact slots); packet 1
// finishes within its Table I bound.
func ExampleRun() {
	res, err := matrixflood.Run(matrixflood.Config{N: 4, M: 2})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("completions:", res.CompletionSlot)
	fmt.Println("waitings:", res.Waitings)
	fmt.Println("type-2 slots:", res.Type2Slots)
	// Output:
	// completions: [3 4]
	// waitings: [3 3]
	// type-2 slots: 2
}

package tugal_test

import (
	"fmt"

	"tugal"
)

// Building a topology and inspecting its Table-2 parameters.
func ExampleNewTopology() {
	t, err := tugal.NewTopology(4, 8, 4, 9)
	if err != nil {
		panic(err)
	}
	row := t.Table2()
	fmt.Println(row.Topology, row.PEs, row.Switches, row.Groups, row.LinksPerGroupPair)
	// Output: dfly(4,8,4,9) 288 72 9 4
}

// Path policies are the object T-UGAL customizes: the candidate VLB
// set. Conventional UGAL uses the full set.
func ExampleFullVLB() {
	t := tugal.MustTopology(4, 8, 4, 9)
	full := tugal.FullVLB(t)
	strategic := tugal.StrategicVLB(t, 2)
	s, d := 0, t.SwitchID(5, 3)
	fmt.Println(full.Name(), len(full.Enumerate(s, d)) > len(strategic.Enumerate(s, d)))
	fmt.Println(strategic.Name())
	// Output:
	// VLB-all true
	// strategic-2+3
}

// The throughput model behind Algorithm 1's Step 1: conventional
// UGAL on dfly(4,8,4,9) models at the capacity optimum 9/16 for
// adversarial shift traffic.
func ExampleModelThroughput() {
	t := tugal.MustTopology(4, 8, 4, 9)
	res := tugal.ModelThroughput(t, tugal.FullVLB(t),
		tugal.ShiftPattern(t, 2, 0), nil)
	fmt.Printf("%.4f\n", res.Alpha)
	// Output: 0.5625
}

// One short simulation run at low load.
func ExampleNewSimulation() {
	t := tugal.MustTopology(2, 4, 2, 9)
	rf := tugal.NewUGALL(t, tugal.FullVLB(t))
	sim := tugal.NewSimulation(t, tugal.DefaultSimConfig(), rf, tugal.Uniform(t), 0.05)
	res := sim.Run(1000, 1000, 2000)
	fmt.Println(res.Saturated, res.Throughput > 0.03)
	// Output: false true
}

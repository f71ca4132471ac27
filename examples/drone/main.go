// Behaviour learning (Sec. V-B5): tune the Ardu controller's 40 parameters
// so its motor-speed traces mimic the well-tuned Veloci reference, one
// flight mode's control function per tuning region, then evaluate on a
// held-out zigzag test mission (Fig. 22).
//
// Run with: go run ./examples/drone
package main

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/drone"
)

func main() {
	fmt.Println("tuning Ardu to mimic Veloci on the training missions...")
	tuner := core.New(core.Options{Seed: 1, MaxPool: 8})
	tuned, _ := bench.TuneArdu(context.Background(), tuner)
	m := tuner.Metrics()
	fmt.Printf("  %d sample flights, %d pruned (crashed/stuck), %.0f sim-seconds\n",
		m.Samples, m.Pruned, tuner.WorkUsed())

	mission := drone.TestMission()
	sim := drone.SimOptions{Dt: 0.02, MaxTime: 200}
	ref := drone.Simulate(drone.NewVeloci(), mission, sim)
	base := drone.Simulate(drone.NewArdu(), mission, sim)
	tunedArdu := drone.NewArdu()
	tunedArdu.SetParams(tuned)
	after := drone.Simulate(tunedArdu, mission, sim)

	fmt.Printf("\ntest mission %q (%0.f m path):\n", mission.Name, drone.PathLength(ref))
	fmt.Printf("  motor RMSE vs reference: %.4f untuned -> %.4f tuned\n",
		drone.MotorRMSE(ref, base), drone.MotorRMSE(ref, after))
	fmt.Printf("  flight time: reference %.1fs | untuned %.1fs | tuned %.1fs\n",
		ref.FlightTime, base.FlightTime, after.FlightTime)
	fmt.Printf("  battery proxy: untuned %.1f -> tuned %.1f\n", base.Energy, after.Energy)

	fmt.Println("\nchanged parameters:")
	defaults := drone.NewArdu().Params()
	for _, mode := range []drone.Mode{drone.ModeTakeoff, drone.ModeCruise, drone.ModeLand} {
		for _, name := range drone.ArduTunables(mode) {
			if tuned[name] != defaults[name] {
				fmt.Printf("  %-18s %8.2f -> %8.2f\n", name, defaults[name], tuned[name])
			}
		}
	}
}

// Fixture: raw recurring-source calls outside sim/+runtime/. Layer
// code registers and arms sources through Simulation::RegisterSource
// and Simulation::PostSource, which the rule leaves alone.
#include "sim/simulation.h"

void Fixture(dilu::sim::Simulation& sim)
{
  const auto id = sim.queue().AddSource([] {});   // line 8
  sim.queue().ArmSource(id, 100);                 // line 9
  const auto ok = sim.RegisterSource([] {});
  sim.PostSource(ok, 100);
}

// Fixed reference work, timed next to every timed sample.
//
// A shared host changes speed by tens of percent over seconds and minutes
// (other tenants, clock frequency), and that drift is wider than the bound a
// benchmark metric may move by.  A sample divided by a reference sample taken
// moments before it cancels the drift, since both run at the same host speed.
// The reference is the benchmark's own code, never the code generator's, so
// a change to the generator moves the ratio and a change of host speed does
// not.  Absolute times are reported at reference speed: the ratio times what
// the reference takes on a quiet host (the constants below).
#pragma once

namespace perfbench {

/// One reference_step() call on a quiet host: 4-vCPU x86-64 VM, gcc 12 -O2.
inline constexpr double kReferenceStepNs = 2000.0;
/// One reference_codegen() call on the same host.
inline constexpr double kReferenceCodegenMs = 0.23;

/// Float and integer loops over a fixed 4096-element working set, the kind
/// of work a generated model_step does.  The values stay bounded however
/// often it runs.
void reference_step();

/// Fixed string, ordered-map, sort and small-allocation work, the kind of
/// work a code generator does.
void reference_codegen();

}  // namespace perfbench

#pragma once
// Umbrella header for the bkc test-support library. Test suites include
// this instead of re-declaring their own fixtures; see the individual
// headers for what lives where:
//
//   support/configs.h - tiny/mid ReActNet config + EngineOptions
//                       factories shared by the model-level suites
//   support/kernels.h - seeded kernel/tensor/stream factories shared by
//                       the codec and hwsim suites
//   support/streams.h - bit-stream round-trip helpers
//   support/golden.h  - golden-file comparison utilities
//   support/int8_reference.h - the pre-rewrite int8 stem/classifier
//                       loops, the oracle of the int8 head suite

#include "support/configs.h"
#include "support/golden.h"
#include "support/int8_reference.h"
#include "support/kernels.h"
#include "support/streams.h"

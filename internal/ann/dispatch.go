// Kernel dispatch: the trainer's hot kernels and the ensemble's stacked
// forward pass are function variables bound once at init. The pure-Go
// implementations in gemm.go are the always-built reference and the default
// binding; gemm_amd64.go rebinds them to the AVX2 implementations when
// internal/simd reports the machine supports it (-tags actor_noasm keeps
// the reference bound).
//
// Every vector implementation is lane-wise — it vectorizes across
// independent outputs (batch samples, units, weight indices) and performs,
// per output, exactly the operation sequence of the scalar reference — so
// the binding choice never changes a single output bit. gemm_simd_test.go
// fuzzes that equivalence across batch tails and row strides.
package ann

var (
	denseForward    = denseForwardScalar
	hiddenEta       = hiddenEtaScalar
	sgdStep         = sgdStepScalar
	sgdFeatureMajor = sgdFeatureMajorScalar
	stackForward    = stackForwardScalar
)

package nn

import (
	"fmt"

	"mgdiffnet/internal/tensor"
)

// bufReuser is implemented by layers that can recycle their forward-output
// and backward-gradient tensors across passes instead of allocating fresh
// ones every call.
type bufReuser interface{ setBufferReuse(on bool) }

// SetBufferReuse toggles output-buffer reuse on l (recursing into
// Sequential). With reuse on, a layer's Forward and Backward return the
// same tensor object on every call of matching shape, overwriting the
// previous contents.
//
// Reuse is an owner's opt-in: it is only sound when no caller retains a
// layer output (or backward gradient) across calls. Training loops that
// consume each activation within the step — like dist.ParallelTrainer's
// replicas, which own their networks outright — qualify; code that keeps
// predictions around for later comparison does not. Every layer keeps its
// own buffer, so a reuse-on network holds all its activations at once;
// inference-only replicas instead place their layers' outputs in one
// arena planned by lifetime (SetOutput, unet.UNet.InferenceClone). Layers
// that do not implement reuse are silently skipped: BatchNorm, whose
// inference inside a Sequential runs in the write-out of the convolution
// before it, or else overwrites the previous layer's output.
func SetBufferReuse(l Layer, on bool) {
	switch v := l.(type) {
	case *Sequential:
		for _, ll := range v.Layers {
			SetBufferReuse(ll, on)
		}
	case bufReuser:
		v.setBufferReuse(on)
	}
}

// outputSetter is implemented by the layers whose forward output SetOutput
// can place.
type outputSetter interface{ setOutput(t *tensor.Tensor) }

// SetOutput makes every later Forward of l write its output into t and
// return t, which the owner re-points (tensor.Reframe) to the output shape
// of each pass before making it; a pass whose output shape t does not have
// panics. A nil t restores l's own output buffer. l must be a convolution,
// a transposed convolution or a MaxPool. It is how an inference-only U-Net
// replica lays every activation into one arena (unet.UNet.InferenceClone):
// the owner, not the layer, then decides which outputs may share storage.
func SetOutput(l Layer, t *tensor.Tensor) {
	s, ok := l.(outputSetter)
	if !ok {
		panic(fmt.Sprintf("nn: SetOutput on %T, which has no settable output", l))
	}
	s.setOutput(t)
}

// outBuf is a single reusable output slot. With reuse off it degenerates
// to tensor.New, so layers pay nothing for carrying one. With reuse on, a
// request that changes only the batch dimension reshapes the held tensor
// in place while its storage suffices (tensor.ResizeBatch), so a network
// that runs batches of 8, 1 and 3 in turn keeps one buffer per layer
// sized for 8; any other change of shape gets a fresh tensor, as before.
// A set tensor (SetOutput) overrides both.
type outBuf struct {
	on  bool
	t   *tensor.Tensor
	set *tensor.Tensor
}

// get returns a tensor of the given shape whose contents are arbitrary;
// callers must overwrite every element.
func (b *outBuf) get(shape ...int) *tensor.Tensor {
	if b.set != nil {
		if !b.set.ShapeIs(shape...) {
			panic(fmt.Sprintf("nn: the set output has shape %v, the layer writes %v", b.set.Shape(), append([]int(nil), shape...)))
		}
		return b.set
	}
	if b.on && b.t != nil && b.t.ResizeBatch(shape...) {
		return b.t
	}
	t := tensor.New(shape...)
	if b.on {
		b.t = t
	}
	return t
}

// getZero returns a zero-filled tensor of the given shape, for callers
// that accumulate into it.
func (b *outBuf) getZero(shape ...int) *tensor.Tensor {
	if b.on && b.t != nil && b.t.ResizeBatch(shape...) {
		b.t.Zero()
		return b.t
	}
	t := tensor.New(shape...)
	if b.on {
		b.t = t
	}
	return t
}

package kernels

import "testing"

func TestCGCommModel(t *testing.T) {
	std := CGCommModel{GridN: 1024, P: 16, S: 1}
	ca := CGCommModel{GridN: 1024, P: 16, S: 4}
	if ca.FlopsPerIteration() <= std.FlopsPerIteration() {
		t.Fatal("s-step must pay extra local flops")
	}
	if std.HaloWordsPerIteration() != 2048 {
		t.Fatalf("halo words = %d", std.HaloWordsPerIteration())
	}
	if (CGCommModel{GridN: 64, P: 1, S: 1}).HaloWordsPerIteration() != 0 {
		t.Fatal("single rank needs no halo")
	}
}

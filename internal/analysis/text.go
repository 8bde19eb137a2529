package analysis

import (
	"fmt"
	"math"
	"strings"
)

// Tokenize splits text into lowercase word tokens, dropping markup and
// punctuation. It is the shared tokenizer of the text workloads
// (WordCount, Grep, Naive Bayes, SVM-on-HTML).
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	inTag := false
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		switch {
		case r == '<':
			inTag = true
			flush()
		case r == '>':
			inTag = false
		case inTag:
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			flush()
		}
	}
	flush()
	return out
}

// HashFeatures maps a bag of words into a fixed-length feature vector by
// feature hashing, the representation the distributed SVM trains on.
func HashFeatures(tokens []string, dim int) []float64 {
	return bucketFeatures(HashBuckets(tokens, dim), dim)
}

// HashBuckets returns each token's feature index (32-bit FNV-1a modulo
// dim): a document's compact form, from which FillBucketFeatures rebuilds
// the dense vector. dim must fit a uint16 index.
func HashBuckets(tokens []string, dim int) []uint16 {
	if dim <= 0 || dim > 1<<16 {
		panic(fmt.Sprintf("analysis: feature dimension %d outside 1..65536", dim))
	}
	buckets := make([]uint16, len(tokens))
	for i, t := range tokens {
		h := uint32(2166136261)
		for j := 0; j < len(t); j++ {
			h ^= uint32(t[j])
			h *= 16777619
		}
		buckets[i] = uint16(h % uint32(dim))
	}
	return buckets
}

// bucketFeatures counts bucket occurrences into a dim-length vector and L2
// normalises it so SGD step sizes are comparable across documents.
func bucketFeatures(buckets []uint16, dim int) []float64 {
	v := make([]float64, dim)
	FillBucketFeatures(v, buckets)
	return v
}

// FillBucketFeatures is bucketFeatures into v, whose length is the
// dimension: callers rebuilding many vectors reuse one buffer.
func FillBucketFeatures(v []float64, buckets []uint16) {
	clear(v)
	for _, b := range buckets {
		v[b]++
	}
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n > 0 {
		n = 1 / math.Sqrt(n)
		for i := range v {
			v[i] *= n
		}
	}
}

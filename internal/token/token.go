// Package token provides the vocabulary, byte-level tokenizer, and the
// synthetic prompt corpus used throughout the reproduction.
//
// The paper evaluates with three 128-token prompts (code generation, a
// fictional tale, and a random Wikitext-2 excerpt) plus a fourth roleplay
// prompt in the GPU experiments (§VI, Fig 10). Wikitext-2 itself is not
// redistributable here, so the corpus generator synthesises text with
// comparable statistics (Zipf-ish word distribution, sentence structure)
// from a fixed seed, which is sufficient because prompt content only
// influences the draft/target acceptance rate — a quantity the experiments
// control directly.
package token

import (
	"fmt"
	"strings"

	"github.com/pipeinfer/pipeinfer/internal/tensor"
)

// Token is a vocabulary index. int32 matches llama.cpp's llama_token.
type Token = int32

// Special token values shared by all vocabularies.
const (
	BOS Token = 0 // beginning of sequence
	EOS Token = 1 // end of sequence
	PAD Token = 2 // padding (never generated)

	// NumSpecial is the count of reserved special tokens.
	NumSpecial = 3
)

// Tokenizer is a byte-level tokenizer: every byte value maps to one token,
// offset past the special tokens. It is exactly invertible, which the
// output-equality experiments rely on.
type Tokenizer struct{}

// NewTokenizer returns a byte-level tokenizer with the given vocabulary
// size, which must be at least NumSpecial+256.
func NewTokenizer(vocabSize int) (*Tokenizer, error) {
	if vocabSize < NumSpecial+256 {
		return nil, fmt.Errorf("token: vocab size %d too small for byte-level coverage (need >= %d)",
			vocabSize, NumSpecial+256)
	}
	return &Tokenizer{}, nil
}

// Encode converts text to tokens, prepending BOS.
func (t *Tokenizer) Encode(text string) []Token {
	out := make([]Token, 0, len(text)+1)
	out = append(out, BOS)
	for _, b := range []byte(text) {
		out = append(out, Token(b)+NumSpecial)
	}
	return out
}

// Decode converts tokens back to text, skipping special tokens.
func (t *Tokenizer) Decode(tokens []Token) string {
	var sb strings.Builder
	for _, tok := range tokens {
		if tok < NumSpecial {
			continue
		}
		if b := int(tok) - NumSpecial; b < 256 {
			sb.WriteByte(byte(b))
		}
	}
	return sb.String()
}

// PromptKind identifies one of the paper's evaluation prompts.
type PromptKind int

const (
	// PromptCode asks for a Python program with no explanation (§V-A).
	PromptCode PromptKind = iota
	// PromptStory asks for a tale about a warrior named Goliath (§V-A).
	PromptStory
	// PromptWikitext is an unformatted corpus excerpt (§V-A).
	PromptWikitext
	// PromptConcept asks to explain a technical concept (Fig 10).
	PromptConcept
	// PromptPaper asks to write a paper (Fig 10).
	PromptPaper
	// PromptRoleplay is the roleplay prompt (Fig 10).
	PromptRoleplay
)

// String names the prompt kind as the paper does.
func (k PromptKind) String() string {
	switch k {
	case PromptCode:
		return "code-generation"
	case PromptStory:
		return "story"
	case PromptWikitext:
		return "wikitext-excerpt"
	case PromptConcept:
		return "explain-concept"
	case PromptPaper:
		return "write-paper"
	case PromptRoleplay:
		return "roleplay"
	default:
		return fmt.Sprintf("PromptKind(%d)", int(k))
	}
}

// Prompt returns the prompt text for kind k. For PromptWikitext the text is
// drawn from the synthetic corpus with the given seed; other prompts are
// fixed instruction strings padded/truncated by PromptTokens.
func Prompt(k PromptKind, seed uint64) string {
	switch k {
	case PromptCode:
		return "### Instruction: Write a Python program that demonstrates advanced " +
			"language features including decorators, generators, context managers, " +
			"and metaclasses. Output only the code, withhold any explanation.\n### Response:\n"
	case PromptStory:
		return "### Instruction: Write a fictional tale about a mighty warrior named " +
			"Goliath who wanders the shattered kingdoms in search of a worthy rival.\n### Response:\n"
	case PromptWikitext:
		return Corpus(seed, 640)
	case PromptConcept:
		return "### Instruction: Explain the concept of speculative execution in modern " +
			"processors to a first-year engineering student, with concrete examples.\n### Response:\n"
	case PromptPaper:
		return "### Instruction: Write the abstract and introduction of a research paper " +
			"on pipelined inference acceleration for large language models.\n### Response:\n"
	case PromptRoleplay:
		return "### Instruction: You are a seasoned starship engineer. Stay in character " +
			"and walk the crew through diagnosing a failing warp coil.\n### Response:\n"
	default:
		panic("token: unknown prompt kind")
	}
}

// corpusWords is a compact word list from which the synthetic corpus is
// assembled with a Zipf-like rank distribution.
var corpusWords = []string{
	"the", "of", "and", "in", "to", "a", "was", "is", "for", "as", "on",
	"with", "by", "that", "it", "from", "at", "were", "which", "an", "his",
	"be", "this", "are", "or", "first", "had", "not", "but", "their", "its",
	"river", "valley", "century", "battle", "system", "village", "music",
	"album", "station", "species", "government", "university", "history",
	"company", "during", "between", "several", "following", "included",
	"production", "development", "northern", "southern", "population",
	"construction", "championship", "professor", "parliament", "structure",
}

// Corpus returns deterministic synthetic prose of approximately n bytes.
func Corpus(seed uint64, n int) string {
	rng := tensor.NewRNG(seed)
	var sb strings.Builder
	sb.Grow(n + 16)
	sentenceLen := 0
	for sb.Len() < n {
		// Zipf-ish: square a uniform to bias toward low ranks.
		u := rng.Float64()
		idx := int(u * u * float64(len(corpusWords)))
		if idx >= len(corpusWords) {
			idx = len(corpusWords) - 1
		}
		w := corpusWords[idx]
		if sentenceLen == 0 {
			w = strings.ToUpper(w[:1]) + w[1:]
		} else {
			sb.WriteByte(' ')
		}
		sb.WriteString(w)
		sentenceLen++
		if sentenceLen >= 6+rng.Intn(10) {
			sb.WriteString(". ")
			sentenceLen = 0
		}
	}
	return sb.String()[:n]
}

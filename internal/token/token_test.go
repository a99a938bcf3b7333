package token

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustTokenizer(t *testing.T) *Tokenizer {
	t.Helper()
	tk, err := NewTokenizer(NumSpecial + 256)
	if err != nil {
		t.Fatal(err)
	}
	return tk
}

func TestNewTokenizerRejectsTinyVocab(t *testing.T) {
	if _, err := NewTokenizer(100); err == nil {
		t.Fatal("expected error for vocab < 259")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	tk := mustTokenizer(t)
	f := func(s string) bool {
		return tk.Decode(tk.Encode(s)) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePrependsBOS(t *testing.T) {
	tk := mustTokenizer(t)
	toks := tk.Encode("hi")
	if toks[0] != BOS {
		t.Fatalf("first token = %d, want BOS", toks[0])
	}
	if len(toks) != 3 {
		t.Fatalf("len = %d, want 3", len(toks))
	}
}

func TestDecodeSkipsSpecials(t *testing.T) {
	tk := mustTokenizer(t)
	got := tk.Decode([]Token{BOS, Token('a') + NumSpecial, EOS, PAD, Token('b') + NumSpecial})
	if got != "ab" {
		t.Fatalf("got %q want %q", got, "ab")
	}
}

func TestCorpusProperties(t *testing.T) {
	s := Corpus(1, 500)
	if len(s) != 500 {
		t.Fatalf("corpus length %d, want 500", len(s))
	}
	if Corpus(1, 500) != s {
		t.Fatal("corpus not deterministic")
	}
	if Corpus(2, 500) == s {
		t.Fatal("corpus insensitive to seed")
	}
	if !strings.Contains(s, ". ") {
		t.Fatal("corpus lacks sentence structure")
	}
	if !strings.Contains(s, "the") && !strings.Contains(s, "The") {
		t.Fatal("corpus missing high-frequency words")
	}
}

func TestPromptKindString(t *testing.T) {
	names := map[PromptKind]string{
		PromptCode:     "code-generation",
		PromptStory:    "story",
		PromptWikitext: "wikitext-excerpt",
		PromptRoleplay: "roleplay",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestPromptsDiffer(t *testing.T) {
	kinds := []PromptKind{PromptCode, PromptStory, PromptConcept, PromptPaper, PromptRoleplay}
	seen := map[string]PromptKind{}
	for _, k := range kinds {
		p := Prompt(k, 0)
		if prev, ok := seen[p]; ok {
			t.Fatalf("prompts %v and %v identical", prev, k)
		}
		seen[p] = k
	}
}

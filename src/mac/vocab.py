"""Word-level whitespace tokenizer with reserved special tokens."""

from __future__ import annotations

PAD = "<pad>"
BOS = "<bos>"
EOS = "<eos>"
SEP = "&&"

SPECIALS = (PAD, BOS, EOS, SEP)


class VocabError(KeyError):
    pass


class Vocab:
    """word -> id map; ids 0..3 are <pad>, <bos>, <eos>, "&&"."""

    def __init__(self, words: list[str]):
        self.words = list(words)
        if self.words[: len(SPECIALS)] != list(SPECIALS):
            raise VocabError(f"vocabulary must start with specials {SPECIALS}")
        self.ids = {w: i for i, w in enumerate(self.words)}
        if len(self.ids) != len(self.words):
            raise VocabError("duplicate words in vocabulary")

    @classmethod
    def build(cls, texts: list[str], max_size: int = 512) -> "Vocab":
        seen: dict[str, None] = {}
        for text in texts:
            for word in text.split():
                if word not in SPECIALS:
                    seen.setdefault(word)
        words = list(SPECIALS) + sorted(seen)
        if len(words) > max_size:
            raise VocabError(f"vocabulary size {len(words)} exceeds cap {max_size}")
        return cls(words)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    def encode(self, text: str) -> list[int]:
        out = []
        for word in text.split():
            if word not in self.ids:
                raise VocabError(f"out-of-vocabulary word {word!r}")
            out.append(self.ids[word])
        return out

    def decode(self, ids: list[int]) -> str:
        return " ".join(self.words[i] for i in ids)

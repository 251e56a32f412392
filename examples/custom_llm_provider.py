"""Plugging a different LLM (or your own) into the cleaning pipeline.

Run with::

    python examples/custom_llm_provider.py

The pipeline talks to any :class:`repro.llm.base.LLMClient`.  The paper's
experiments use Claude 3.5 through the Anthropic API; offline, the default is
the deterministic :class:`SimulatedSemanticLLM`.  This example shows

1. how a hosted client would be configured (Anthropic / OpenAI / Azure),
2. how to wrap any client with the prompt cache, and
3. how to implement a custom client — here one that logs every prompt before
   delegating to the simulated model, which is also a useful debugging tool.
"""

from typing import Optional

from repro.core import CocoonCleaner
from repro.dataframe import Table
from repro.llm import CachingLLMClient, SimulatedSemanticLLM
from repro.llm.base import LLMClient
from repro.llm.providers import AnthropicClient, OpenAIClient  # noqa: F401  (shown for reference)


class LoggingLLM(LLMClient):
    """A custom client: logs prompt/response sizes, delegates to another client."""

    model_name = "logging-wrapper"

    def __init__(self, inner: Optional[LLMClient] = None):
        super().__init__()
        self.inner = inner or SimulatedSemanticLLM()

    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        response = self.inner.complete(prompt, system=system).text
        first_line = prompt.splitlines()[0][:72]
        print(f"  [llm] {len(prompt):>5} chars -> {len(response):>5} chars | {first_line}")
        return response


def main() -> None:
    # A hosted model would be configured like this (requires network + API key):
    #   llm = AnthropicClient(model="claude-3-5-sonnet-20240620")
    #   llm = OpenAIClient(model="gpt-4o")
    # Offline we wrap the simulated model with a cache and a logger.
    llm = CachingLLMClient(LoggingLLM())

    table = Table.from_dict(
        "beers",
        {
            "beer": [f"beer {i}" for i in range(12)],
            "ounces": ["12.0 oz"] * 8 + ["12.0 ounce"] * 3 + ["12.0 OZ"],
            "state": ["CA"] * 6 + ["California"] * 3 + ["TX"] * 3,
        },
    )
    result = CocoonCleaner(llm=llm).clean(table)

    print()
    print(result.summary_text())
    print(f"prompt cache hit rate: {llm.store.stats()['hit_rate']:.0%}")
    print()
    print(result.cleaned_table.to_display())


if __name__ == "__main__":
    main()

"""LLM substrate: prompts, response parsing, providers and a simulated model.

Cocoon delegates *semantic* judgements (is "eng"/"English" the same concept?
does this column semantically hold a boolean? is this statistically strong
functional dependency meaningful?) to a large language model.  The paper uses
Claude 3.5 through provider APIs (Anthropic, Azure, Bedrock, VertexAI,
OpenAI).

This environment has no network access, so the default client is
:class:`~repro.llm.simulated.SimulatedSemanticLLM`: a deterministic semantic
engine backed by explicit knowledge bases.  Crucially it is driven through
exactly the same interface as a real model — it receives the rendered prompt
text (Figures 2 and 3 of the paper) and returns a JSON or YAML response that
the pipeline must parse — so every prompt-construction and response-parsing
code path in Cocoon is exercised.

Real provider clients for Anthropic, OpenAI and Azure OpenAI are provided
in :mod:`repro.llm.providers` for use when network access and API keys are
available.
"""

from repro.llm.base import LLMClient, LLMResponse, LLMUsage, CallRecord
from repro.llm.simulated import SimulatedSemanticLLM
from repro.llm.cache import CachingLLMClient, PromptCacheStore, prompt_cache_key
from repro.llm import prompts, parsing

__all__ = [
    "LLMClient",
    "LLMResponse",
    "LLMUsage",
    "CallRecord",
    "SimulatedSemanticLLM",
    "CachingLLMClient",
    "PromptCacheStore",
    "prompt_cache_key",
    "prompts",
    "parsing",
]

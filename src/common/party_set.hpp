// Dense set of party ids: one bit per party.
//
// The protocols tally voters, witnesses and double-witnesses per instance,
// thousands of times per agreement; a node-based std::set costs one heap
// allocation per member. PartySet keeps ids 0..63 in one inline word, so
// every run with n <= 64 tallies without touching the heap; larger ids
// spill into heap words (there is no cap on n). Iteration is ascending, so
// anything serialized from a PartySet matches the bytes of a sorted set.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <ranges>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace hydra {

class PartySet {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = PartyId;
    using difference_type = std::ptrdiff_t;
    using pointer = const PartyId*;
    using reference = PartyId;

    const_iterator() = default;

    [[nodiscard]] PartyId operator*() const noexcept {
      return static_cast<PartyId>(word_ * 64 + std::countr_zero(bits_));
    }
    const_iterator& operator++() noexcept {
      bits_ &= bits_ - 1;
      skip_empty();
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    [[nodiscard]] friend bool operator==(const const_iterator& a,
                                         const const_iterator& b) noexcept {
      return a.word_ == b.word_ && a.bits_ == b.bits_;
    }

   private:
    friend class PartySet;
    const_iterator(const PartySet* set, std::size_t word) noexcept
        : set_(set), word_(word), bits_(word < set->words() ? set->word(word) : 0) {
      skip_empty();
    }
    void skip_empty() noexcept {
      while (bits_ == 0 && word_ < set_->words()) {
        ++word_;
        bits_ = word_ < set_->words() ? set_->word(word_) : 0;
      }
    }

    const PartySet* set_ = nullptr;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };
  using iterator = const_iterator;
  using value_type = PartyId;

  PartySet() = default;

  PartySet(std::initializer_list<PartyId> ids) {
    for (const PartyId id : ids) insert(id);
  }

  /// Any range of party ids (e.g. a std::set<PartyId>) converts, so callers
  /// holding ids in another container can pass them where a PartySet is
  /// expected; duplicates collapse.
  template <std::ranges::input_range R>
    requires(!std::is_same_v<std::remove_cvref_t<R>, PartySet> &&
             std::is_convertible_v<std::ranges::range_reference_t<const R>, PartyId>)
  PartySet(const R& ids) {  // NOLINT(google-explicit-constructor)
    for (const PartyId id : ids) insert(id);
  }

  /// Adds `id`; returns whether it was new.
  bool insert(PartyId id) {
    const std::size_t w = id / 64;
    if (w > heap_.size()) heap_.resize(w, 0);
    std::uint64_t& word = w == 0 ? inline_ : heap_[w - 1];
    const std::uint64_t bit = std::uint64_t{1} << (id % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(PartyId id) const noexcept {
    const std::size_t w = id / 64;
    return w < words() && ((word(w) >> (id % 64)) & 1) != 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Every member of *this is a member of `other`.
  [[nodiscard]] bool is_subset_of(const PartySet& other) const noexcept {
    if (size_ > other.size_) return false;
    for (std::size_t w = 0; w < words(); ++w) {
      const std::uint64_t theirs = w < other.words() ? other.word(w) : 0;
      if ((word(w) & ~theirs) != 0) return false;
    }
    return true;
  }

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept { return {this, words()}; }

  [[nodiscard]] friend bool operator==(const PartySet& a, const PartySet& b) noexcept {
    return a.size_ == b.size_ && a.is_subset_of(b);
  }

 private:
  [[nodiscard]] std::size_t words() const noexcept { return 1 + heap_.size(); }
  [[nodiscard]] std::uint64_t word(std::size_t w) const noexcept {
    return w == 0 ? inline_ : heap_[w - 1];
  }

  std::uint64_t inline_ = 0;         ///< ids 0..63
  std::vector<std::uint64_t> heap_;  ///< ids 64.. (word w holds 64w..64w+63)
  std::size_t size_ = 0;
};

}  // namespace hydra

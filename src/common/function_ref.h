// Non-owning reference to a callable, for visitor parameters.
//
// std::function heap-allocates any callable larger than two pointers (a
// lambda capturing three locals by reference already is), which a per-row
// visitor on the render path cannot afford. A FunctionRef never allocates:
// it holds the callable's address, so the callable must outlive the call
// it is passed to — the natural shape of a lambda argument.
#pragma once

#include <type_traits>
#include <utility>

namespace nagano {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT: implicit, like std::function
      : object_(const_cast<void*>(static_cast<const void*>(&f))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace nagano

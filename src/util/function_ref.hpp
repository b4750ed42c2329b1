// Non-owning reference to a callable: an object pointer plus a trampoline.
//
// For callbacks that run before the function taking them returns — a
// packet builder handing its caller the bytes to fill in place — where
// std::function would copy the callable and may allocate. The referenced
// callable must outlive the FunctionRef; bind it to a temporary only in a
// call argument.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace streamlab {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor): callable adapter
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

}  // namespace streamlab
